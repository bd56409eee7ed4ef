"""Run history: an append-only JSONL store of benchmark trajectories.

Every ``python -m repro bench`` run appends one *entry* — a flat
``metric name -> float`` mapping stamped with full provenance (git
SHA, ``repro.__version__``, host, seed, scale) — to
``runs/history.jsonl``.  The store is the substrate of the regression
gate (:mod:`repro.obs.compare`) and the trajectory report
(:mod:`repro.obs.report`): because entries are keyed by commit and
timestamp, "did this commit hurt MEI accuracy" is a query, not an
archaeology project.

Metric namespace (flat, dotted):

* ``table1.<bench>.<column>`` — accuracy rows from the Table 1 driver
  (``error_mei``, ``robustness_mei``, ``area_saved_measured``, ...);
* ``errorbudget.<bench>.*`` — per-stage attributions from the
  error-budget driver (``kind="errorbudget"`` entries);
* ``<stem>.<path>`` — numeric leaves of the archived row exports under
  ``benchmarks/out/*.json``, e.g. ``table1_fft.rows.fft.error_mei``.

Every metric is a deterministic per-seed quantity; wall-clock timing
is measured by ``perfbench/`` (repeated pairs, median and IQR), not
recorded here.

Everything here is stdlib-only and import-safe from any layer.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Sequence

from repro.config import knobs
from repro.obs.runinfo import provenance_header

__all__ = [
    "HISTORY_ENV",
    "DEFAULT_HISTORY_PATH",
    "KNOWN_KINDS",
    "history_path",
    "append_entry",
    "load_history",
    "entries_for_sha",
    "entries_of_kind",
    "entry_kind",
    "latest_entry",
    "aggregate_metrics",
    "build_entry",
    "flatten_payload",
    "ingest_out_dir",
]

HISTORY_ENV = "REPRO_HISTORY"
"""Environment variable overriding the default history store path."""

DEFAULT_HISTORY_PATH = "runs/history.jsonl"


def history_path(path: "Optional[str | pathlib.Path]" = None) -> pathlib.Path:
    """Resolve the history store: explicit > ``REPRO_HISTORY`` > default."""
    if path is None:
        path = knobs.get_path(HISTORY_ENV) or DEFAULT_HISTORY_PATH
    return pathlib.Path(path)


def append_entry(
    entry: Dict[str, object], path: "Optional[str | pathlib.Path]" = None
) -> pathlib.Path:
    """Append one entry as a single JSON line; create parents as needed."""
    target = history_path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True, default=str) + "\n")
    return target


def load_history(path: "Optional[str | pathlib.Path]" = None) -> List[Dict[str, object]]:
    """All entries in append order; corrupt/partial lines are skipped.

    A torn final line (e.g. a run killed mid-append) must not take the
    whole trajectory down with it.
    """
    target = history_path(path)
    if not target.exists():
        return []
    entries: List[Dict[str, object]] = []
    for line in target.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(entry, dict):
            entries.append(entry)
    return entries


def entries_for_sha(
    history: Sequence[Dict[str, object]], sha: str
) -> List[Dict[str, object]]:
    """Entries whose ``git_sha`` starts with ``sha`` (short SHAs work)."""
    return [
        e
        for e in history
        if isinstance(e.get("git_sha"), str) and str(e["git_sha"]).startswith(sha)
    ]


KNOWN_KINDS = frozenset({"bench", "errorbudget"})
"""Every history-entry ``kind`` a producer in this repo writes.

The compare gate warns about (and excludes) entries of any other
kind — a new producer must register its kind here so its rows cannot
be dropped unnoticed (see :func:`repro.obs.compare.compare_history`).
"""


def entry_kind(entry: Dict[str, object]) -> str:
    """The effective kind of one entry.

    Seed-era entries predate the ``kind`` field; they count as
    ``bench`` so existing baselines keep resolving.
    """
    return str(entry.get("kind") or "bench")


def entries_of_kind(
    history: Sequence[Dict[str, object]], kind: str
) -> List[Dict[str, object]]:
    """Entries of one kind (``bench``, ``errorbudget``, ...)."""
    return [e for e in history if entry_kind(e) == kind]


def latest_entry(
    history: Sequence[Dict[str, object]], sha: Optional[str] = None
) -> Optional[Dict[str, object]]:
    """Most recent entry, optionally restricted to one commit."""
    pool = entries_for_sha(history, sha) if sha else list(history)
    if not pool:
        return None
    return max(pool, key=lambda e: (str(e.get("created", "")), pool.index(e)))


def aggregate_metrics(
    entries: Sequence[Dict[str, object]],
) -> Dict[str, float]:
    """Mean of every metric across repeated runs of the same commit.

    Runs of one seed agree exactly, so the mean matters only across
    seeds; a metric missing from some runs averages over the rest.
    """
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for entry in entries:
        metrics = entry.get("metrics")
        if not isinstance(metrics, dict):
            continue
        for name, value in metrics.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            sums[name] = sums.get(name, 0.0) + float(value)
            counts[name] = counts.get(name, 0) + 1
    return {name: sums[name] / counts[name] for name in sums}


def build_entry(
    metrics: Dict[str, float],
    kind: str = "bench",
    seed: Optional[int] = None,
    scale: Optional[str] = None,
    **extra: object,
) -> Dict[str, object]:
    """Assemble one history entry with full provenance.

    ``git_sha``/``created``/``version`` are hoisted to the top level so
    baseline resolution never has to dig into the provenance block.
    """
    provenance = provenance_header(**extra)
    return {
        "kind": kind,
        "created": provenance.get("created"),
        "git_sha": provenance.get("git_sha"),
        "version": provenance.get("version"),
        "seed": seed,
        "scale": scale,
        "provenance": provenance,
        "metrics": {k: metrics[k] for k in sorted(metrics)},
    }


def flatten_payload(payload: object, prefix: str = "") -> Dict[str, float]:
    """Flatten a nested JSON payload to dotted-name numeric leaves.

    Dicts recurse by key; lists recurse by index (or by each element's
    ``name`` field when present, matching the row exports); booleans
    and strings are dropped; a ``provenance`` block is skipped — it is
    metadata, not a metric.
    """
    out: Dict[str, float] = {}

    def _walk(node: object, path: str) -> None:
        if isinstance(node, bool):
            return
        if isinstance(node, (int, float)):
            if path:
                out[path] = float(node)
            return
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "provenance":
                    continue
                _walk(value, f"{path}.{key}" if path else str(key))
            return
        if isinstance(node, (list, tuple)):
            for index, value in enumerate(node):
                label = (
                    str(value["name"])
                    if isinstance(value, dict) and "name" in value
                    else str(index)
                )
                _walk(value, f"{path}.{label}" if path else label)

    _walk(payload, prefix)
    return out


def ingest_out_dir(
    out_dir: "str | pathlib.Path" = "benchmarks/out",
) -> Dict[str, float]:
    """Flatten every archived JSON payload under ``benchmarks/out/``.

    ``table1_fft.json`` becomes ``table1_fft.*`` (stems are
    lower-cased); unreadable files are skipped so a half-written
    archive cannot poison an entry.
    """
    out_dir = pathlib.Path(out_dir)
    metrics: Dict[str, float] = {}
    if not out_dir.exists():
        return metrics
    for path in sorted(out_dir.glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        metrics.update(flatten_payload(payload, prefix=path.stem.lower()))
    return metrics
