"""Shared infrastructure for the benchmark harness.

Each bench regenerates one of the paper's tables/figures, prints the
rows, and archives them under ``benchmarks/out/`` — the rendered text
report always, and (when the bench passes structured ``rows``) a
provenance-stamped JSON payload alongside it.  The JSON payloads feed
the run-history store (``python -m repro bench`` ingests every
``benchmarks/out/*.json``; see ``docs/benchmarking.md``).  Scales
follow ``REPRO_FULL`` (see ``repro.core.runner``).
"""

import json
import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def save_report():
    """Persist a rendered report (and optional JSON rows); echo it.

    ``rows`` may be any JSON-serializable structure — typically the
    driver's ``row_dicts()`` output.  It is wrapped with a
    ``provenance_header()`` so archived numbers stay attributable to a
    commit/host, and written to ``benchmarks/out/<name>.json``.
    """
    from repro.obs.runinfo import provenance_header

    OUT_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str, rows=None) -> None:
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        if rows is not None:
            payload = {"provenance": provenance_header(), "rows": rows}
            (OUT_DIR / f"{name}.json").write_text(
                json.dumps(payload, indent=2, default=str) + "\n"
            )
        print(f"\n{text}\n")

    return _save


@pytest.fixture(scope="session")
def scale():
    from repro.core.runner import default_scale

    return default_scale()
