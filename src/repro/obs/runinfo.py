"""Run manifests: provenance + telemetry for every experiment run.

A *manifest* answers "which code, on which machine, with which knobs,
produced this number, and where did the time go": git SHA, hostname,
Python/NumPy versions, every ``REPRO_*`` environment knob, the seed
and scale, the collected span tree and a metrics snapshot.  Experiment
drivers write one per run to ``runs/<timestamp>-<experiment>.json``
(directory overridable via ``--run-dir`` / ``REPRO_RUN_DIR``).

The bench row exports embed :func:`provenance_header` in their archived
JSON payloads so archived rows stay attributable to a commit and host.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import socket
import subprocess
import time
from dataclasses import asdict, is_dataclass
from typing import Dict, Optional, Sequence

from repro.config import knobs
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = [
    "RUN_DIR_ENV",
    "git_sha",
    "git_dirty",
    "checkout_state",
    "repro_env",
    "environment_info",
    "provenance_header",
    "build_manifest",
    "write_manifest",
]

RUN_DIR_ENV = "REPRO_RUN_DIR"
"""Environment variable overriding the default ``runs/`` directory."""

DEFAULT_RUN_DIR = "runs"


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """HEAD commit of the enclosing git checkout, or None."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or os.getcwd(),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def git_dirty(cwd: Optional[str] = None) -> Optional[bool]:
    """True when the checkout has uncommitted changes, None if unknown.

    A dirty tree makes the recorded ``git_sha`` an unreliable
    provenance key — benchmark archives stamped from one are not
    attributable to any commit (see :func:`checkout_state`).
    """
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd or os.getcwd(),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return bool(out.stdout.strip())


def checkout_state(entry: Dict[str, object]) -> Optional[str]:
    """``None`` if ``entry`` came from a clean checkout, else why not.

    Returns ``"unknown"`` (no commit, or git state unreadable) or
    ``"dirty"`` (uncommitted changes).  Reads the entry's own
    ``git_sha`` and the ``provenance["git_dirty"]`` flag recorded when
    it was built; only an entry without that flag asks git now.  The
    bench and errorbudget drivers warn on a stale entry, and the CLI
    refuses to promote one to a committed baseline.
    """
    sha = entry.get("git_sha")
    provenance = entry.get("provenance")
    if isinstance(provenance, dict) and "git_dirty" in provenance:
        dirty = provenance["git_dirty"]
    else:
        dirty = git_dirty()
    if sha is not None and dirty is False:
        return None
    return "unknown" if sha is None or dirty is None else "dirty"


def repro_env() -> Dict[str, str]:
    """All ``REPRO_*`` environment knobs currently set."""
    return knobs.snapshot()


def _package_version() -> Optional[str]:
    """``repro.__version__`` (lazy import: obs must not cycle into repro)."""
    try:
        from repro import __version__

        return __version__
    except Exception:  # pragma: no cover - package metadata always present
        return None


def environment_info() -> Dict[str, object]:
    """Host / toolchain / knob provenance."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep
        numpy_version = None
    # Lazy import: repro.parallel imports repro.obs at module level,
    # so the reverse edge must stay inside the function body.
    from repro.parallel.executor import EXECUTOR_ENV, resolve_workers

    executor_kind = (knobs.get_str(EXECUTOR_ENV) or "process").strip() or "process"
    executor_workers = resolve_workers()
    return {
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
        "version": _package_version(),
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        # What the sweeps will actually use, not just what the host
        # has: ``cpu_count`` alone does not say how many workers the
        # executors ran with (REPRO_WORKERS, often 1).
        "executor_workers": executor_workers,
        "executor_kind": executor_kind if executor_workers > 1 else "serial",
        "pid": os.getpid(),
        "repro_env": repro_env(),
    }


def provenance_header(**extra: object) -> Dict[str, object]:
    """Provenance block for archived benchmark payloads."""
    header: Dict[str, object] = {
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        **environment_info(),
    }
    header.update(extra)
    return header


def _scale_dict(scale: object) -> object:
    if scale is None:
        return None
    if is_dataclass(scale) and not isinstance(scale, type):
        return asdict(scale)
    return str(scale)


def build_manifest(
    experiment: str,
    seed: Optional[int] = None,
    scale: object = None,
    argv: Optional[Sequence[str]] = None,
    extra: Optional[Dict[str, object]] = None,
    spans: Optional[Sequence[_trace.SpanRecord]] = None,
    metrics_snapshot: Optional[Dict[str, Dict[str, object]]] = None,
) -> Dict[str, object]:
    """Assemble the manifest dict (spans/metrics default to the
    process-wide collectors' current contents)."""
    if spans is None:
        spans = _trace.get_records()
    if metrics_snapshot is None:
        metrics_snapshot = _metrics.snapshot()
    tree = _trace.span_tree(spans)
    return {
        "experiment": experiment,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "seed": seed,
        "scale": _scale_dict(scale),
        "argv": list(argv) if argv is not None else None,
        "environment": environment_info(),
        "metrics": metrics_snapshot,
        "span_tree": tree,
        "spans": [record.to_dict() for record in spans],
        **(extra or {}),
    }


def write_manifest(
    experiment: str,
    run_dir: "Optional[str | pathlib.Path]" = None,
    **kwargs: object,
) -> pathlib.Path:
    """Write ``<run_dir>/<timestamp>-<experiment>.json``; return its path.

    ``run_dir`` resolves explicit argument > ``REPRO_RUN_DIR`` >
    ``runs/`` under the current directory.
    """
    if run_dir is None:
        run_dir = knobs.get_path(RUN_DIR_ENV) or DEFAULT_RUN_DIR
    directory = pathlib.Path(run_dir)
    directory.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = directory / f"{stamp}-{experiment}.json"
    counter = 1
    while path.exists():
        path = directory / f"{stamp}-{experiment}.{counter}.json"
        counter += 1
    manifest = build_manifest(experiment, **kwargs)
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n", encoding="utf-8")
    return path
