"""Opt-in runtime sanitizer: cheap guards at the analog stage seams.

The static rules (``repro.lintrules``) prove structural invariants;
this package checks the *numeric* ones the paper's Eq. 5 error model
silently assumes — values stay finite through DAC → crossbar →
comparator/ADC, programmed conductances stay inside the device window,
and one ``np.random.Generator`` is never driven from several threads
(which the logged-seed replay contract cannot survive).

Everything is gated behind the ``REPRO_SANITIZE`` knob and costs one
cached boolean check when off.  When a guard trips it **records a
finding** (process-local list + the ``sanitize_findings`` counter,
exposed as ``repro_sanitize_findings_total`` over OpenMetrics, + a
structured log warning) instead of raising: a fault campaign that
deliberately injects NaNs should complete, and the findings list tells
the harness — and the CI sanitize leg — exactly what fired where.

Usage::

    REPRO_SANITIZE=1 python -m pytest -x -q      # CI leg: assert no findings

    from repro.sanitize import findings, reset
    reset()
    ...  # run the pipeline
    assert findings() == []
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import knobs
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics

__all__ = [
    "MAX_FINDINGS",
    "SANITIZE_ENV",
    "SanitizeFinding",
    "enabled",
    "findings",
    "record",
    "reset",
    "set_enabled",
]

SANITIZE_ENV = "REPRO_SANITIZE"
"""Set to ``1`` to arm the runtime sanitizer guards."""

MAX_FINDINGS = 1000
"""Findings kept in memory; the counter keeps counting beyond this."""

_log = obs_log.get_logger("sanitize")

_lock = threading.Lock()
_enabled: Optional[bool] = None
_findings: List["SanitizeFinding"] = []


@dataclass(frozen=True)
class SanitizeFinding:
    """One tripped guard."""

    stage: str
    """Pipeline stage that tripped (``trainer``, ``crossbar``...)."""
    kind: str
    """Guard family: ``non-finite`` / ``range`` / ``rng-shared``."""
    detail: str
    """Human-readable description with the offending values."""
    fields: Dict[str, object] = field(default_factory=dict)

    def format(self) -> str:
        return f"[{self.stage}] {self.kind}: {self.detail}"


def enabled() -> bool:
    """Whether the sanitizer is armed (REPRO_SANITIZE, cached)."""
    global _enabled
    if _enabled is None:
        _enabled = knobs.get_bool(SANITIZE_ENV)
    return _enabled


def set_enabled(on: Optional[bool]) -> None:
    """Force the sanitizer on/off; ``None`` re-resolves from the knob."""
    global _enabled
    _enabled = on if on is None else bool(on)


def record(stage: str, kind: str, detail: str, **fields: object) -> SanitizeFinding:
    """Record one finding (list + counter + log warning); never raises."""
    finding = SanitizeFinding(stage=stage, kind=kind, detail=detail, fields=dict(fields))
    with _lock:
        if len(_findings) < MAX_FINDINGS:
            _findings.append(finding)
    obs_metrics.counter("sanitize_findings").inc()
    _log.warning(
        "sanitizer guard tripped: %s",
        finding.format(),
        extra={"fields": {"stage": stage, "kind": kind, **fields}},
    )
    return finding


def findings() -> List[SanitizeFinding]:
    """Snapshot of the findings recorded so far in this process."""
    with _lock:
        return list(_findings)


def reset() -> None:
    """Clear findings and per-run guard state (tests, new runs)."""
    from repro.sanitize import rng

    global _enabled
    with _lock:
        _findings.clear()
    _enabled = None
    rng._reset()


from repro.sanitize.guards import check_finite, check_range  # noqa: E402  (public re-exports)
from repro.sanitize.rng import note_rng, scan_items  # noqa: E402

__all__ += [
    "check_finite",
    "check_range",
    "note_rng",
    "scan_items",
]
