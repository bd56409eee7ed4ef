"""The ``python -m repro bench`` driver: measure, stamp, append.

One bench run trains the full Table 1 suite (all six benchmarks, three
systems each, plus the pruned-MEI robustness check), harvests

* the per-benchmark accuracy metrics (``table1.<name>.*``),
* every archived row export on disk (``benchmarks/out/*.json``),

and appends a single provenance-stamped entry to the run history
(``runs/history.jsonl``).  The committed ``benchmarks/baseline.json``
snapshot is the same entry shape, written via ``--write-baseline``;
:mod:`repro.obs.compare` gates later runs against it.  Every metric is
deterministic per seed; wall-clock timing lives in ``perfbench/``.
"""

from __future__ import annotations

import json
import pathlib
import warnings
from typing import Dict, Optional, Sequence, Tuple

from repro.core.runner import ExperimentScale, default_scale, format_table
from repro.experiments.table1 import Table1Result, calibrated_params, run_benchmark_row
from repro.obs import history as obs_history
from repro.obs import runinfo
from repro.obs.log import get_logger
from repro.workloads.registry import BENCHMARK_NAMES

__all__ = ["run_bench", "write_baseline", "render_bench_entry"]

_log = get_logger("experiments.bench")


def run_bench(
    names: Sequence[str] = BENCHMARK_NAMES,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    history_path: "Optional[str | pathlib.Path]" = None,
    out_dir: "str | pathlib.Path" = "benchmarks/out",
    include_archive: bool = True,
    append: bool = True,
) -> Tuple[Dict[str, object], Optional[pathlib.Path]]:
    """Run the bench suite and append one entry to the history store.

    Returns ``(entry, history_file)``; ``append=False`` builds the
    entry without touching the store (used by tests and baseline
    regeneration).
    """
    scale = scale if scale is not None else default_scale()
    names = list(names)
    params = calibrated_params()
    rows = [run_benchmark_row(name, scale, seed, params) for name in names]
    metrics = Table1Result(rows=rows).metrics()
    if include_archive:
        archived = obs_history.ingest_out_dir(out_dir)
        # Live measurements win over stale archived payloads.
        archived.update(metrics)
        metrics = archived
    entry = obs_history.build_entry(
        metrics,
        kind="bench",
        seed=seed,
        scale=scale.name,
        benchmarks=names,
    )
    # Provenance staleness guard: an entry recorded from a dirty or
    # unknown checkout carries a git_sha that does not describe the
    # code that produced the numbers.  The entry is still appended
    # (local iteration needs it) but the condition is loud, and the
    # CLI refuses to promote such an entry to the committed baseline.
    state = runinfo.checkout_state(entry)
    if state is not None:
        warnings.warn(
            f"bench provenance is stale: git checkout is {state}; the recorded "
            f"git_sha does not identify the measured code (commit first, or "
            f"treat this entry as throwaway)",
            RuntimeWarning,
            stacklevel=2,
        )
    target: Optional[pathlib.Path] = None
    if append:
        target = obs_history.append_entry(entry, history_path)
        _log.info(
            "bench entry appended",
            extra={
                "fields": {
                    "history": str(target),
                    "metrics": len(metrics),
                    "git_sha": entry.get("git_sha"),
                }
            },
        )
    return entry, target


def write_baseline(
    entry: Dict[str, object],
    path: "str | pathlib.Path" = "benchmarks/baseline.json",
) -> pathlib.Path:
    """Persist a history entry as a committed baseline snapshot.

    The bench entry goes to ``benchmarks/baseline.json``; the
    errorbudget CLI passes its own snapshot path.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(entry, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    return target


def render_bench_entry(entry: Dict[str, object]) -> str:
    """Human summary of one bench entry (the accuracy rows)."""
    metrics = entry.get("metrics") or {}
    benches = sorted(
        {name.split(".")[1] for name in metrics if name.startswith("table1.")}
    )
    rows = []
    for bench in benches:
        rows.append(
            [
                bench,
                metrics.get(f"table1.{bench}.error_mei", float("nan")),
                metrics.get(f"table1.{bench}.error_adda", float("nan")),
                metrics.get(f"table1.{bench}.robustness_mei", float("nan")),
                metrics.get(f"table1.{bench}.area_saved_measured", float("nan")),
                metrics.get(f"table1.{bench}.power_saved_measured", float("nan")),
            ]
        )
    header = (
        f"Bench run — commit {str(entry.get('git_sha') or 'unknown')[:12]} "
        f"scale={entry.get('scale')} seed={entry.get('seed')} "
        f"({len(metrics)} metrics)\n"
    )
    table = format_table(
        ["bench", "err MEI", "err AD/DA", "robustness", "area saved",
         "power saved"],
        rows,
    )
    return header + table
