"""Shared pieces of the benchmark: statistics, provenance, output checks.

Nothing here imports ``repro``; the workloads do, after ``run.py`` has
pinned the environment.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import platform
import re
import subprocess
from typing import Dict, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
"""Root of the checkout the benchmark runs in."""

OUT_DIR = ROOT / ".perfbench_out"
"""Everything a run writes (artifacts, server logs, traces, digests)."""

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

BLAS_THREADS = 1
"""BLAS/OpenMP threads of this process and every child it starts."""

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")

KNOBS = {"REPRO_WORKERS": "1", "REPRO_TRACE": "0", "REPRO_TELEMETRY": "0"}
"""The only ``REPRO_*`` knobs a run sets; every other one is cleared so
it takes its default."""


def pin_environment() -> None:
    """Fix threads and knobs for this process and its children.

    Must run before NumPy is imported: BLAS reads its thread count once.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(KNOBS)
    for name in BLAS_ENV:
        os.environ[name] = str(min(BLAS_THREADS, nproc()))
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    # Keep git (called by the program's provenance stamp) from searching
    # for a repository above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# -- statistics -------------------------------------------------------------

PERCENTILE_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of percentile ``pct`` in ``n`` samples (the
    tolerance keeps 99.9 % of 10000 at 9990, not 9991)."""
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``pct``
    percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(pct, len(values)) - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail_percentile(n: int, beyond: int = 10) -> Optional[float]:
    """Highest ladder percentile with at least ``beyond`` of ``n`` samples
    above it, or None when the sample supports none."""
    for pct in PERCENTILE_LADDER:
        if n - _rank(pct, n) >= beyond:
            return pct
    return None


def tail(values: Sequence[float], wanted: float = 99.0) -> Dict[str, float]:
    """The ``wanted`` percentile, lowered to the highest one the sample
    supports; the maximum when it supports none."""
    supported = tail_percentile(len(values))
    if supported is None:
        return {"value": max(values), "percentile": 100.0, "samples": float(len(values))}
    pct = min(wanted, supported)
    return {"value": percentile(values, pct), "percentile": pct, "samples": float(len(values))}


# -- checks -----------------------------------------------------------------


class Checks:
    """Operations attempted and failed in one run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(f"{what}: {failed} of {attempted} failed")


def digest(*parts: object) -> str:
    """Content digest of arrays, numbers and strings (stable across runs)."""
    import numpy as np

    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def source_digest() -> str:
    """Digest of the program's source, the provenance key that also holds
    in a checkout without git."""
    h = hashlib.blake2b(digest_size=16)
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_digest(checks: Checks, key: str, value: str) -> Optional[str]:
    """Compare ``value`` with the digest an earlier run of the same source,
    workload and seed recorded in this checkout; record it if new.

    Returns the earlier digest (None on the first run).
    """
    path = OUT_DIR / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    earlier = known.get(key)
    if earlier is None:
        known[key] = value
        path.write_text(json.dumps(known, indent=1, sort_keys=True))
    else:
        checks.check(earlier == value, f"output digest {value} != {earlier} of an earlier run")
    return earlier


# -- memory and provenance ----------------------------------------------------


def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    import numpy as np

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": sha.strip() if sha else None,
        "git_dirty": None if status is None else bool(status.strip()),
        "source_digest": source_digest(),
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "repro_knobs": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "platform": platform.platform(),
    }


# -- the result line ----------------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs(spec: dict, trace: bool) -> Dict[str, dict]:
    """Name -> entry of the per-layer (traced) or end-to-end metrics."""
    return {e["name"]: e for e in spec["per_layer" if trace else "end_to_end"]}


def result_line(values: Dict[str, float], checks: Checks, trace: bool,
                spec: Optional[dict] = None) -> str:
    """The final stdout line: every declared metric, with its unit."""
    specs = metric_specs(spec if spec is not None else load_spec(), trace)
    missing = sorted(set(specs) - set(values))
    extra = sorted(set(values) - set(specs))
    if missing or extra:
        raise ValueError(f"metrics do not match BENCHMARK.json: missing {missing}, extra {extra}")
    for name, value in values.items():
        if not METRIC_NAME.match(name) or not math.isfinite(value):
            raise ValueError(f"bad metric {name}={value}")
    return json.dumps({
        "correct": checks.failed == 0,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {name: {"value": float(values[name]), "unit": specs[name]["unit"]}
                    for name in specs},
    })
