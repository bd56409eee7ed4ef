"""Regression gate: tolerance-aware comparison against a baseline run.

Given two flat metric mappings — the current run and a baseline
resolved from history (latest entry for a named SHA) or from the
committed ``benchmarks/baseline.json`` snapshot — judge every metric
and produce a machine-readable verdict.  Every metric is a
deterministic per-seed accuracy quantity (per-benchmark MEI/SAAB
errors, ``robustness_mei``, cost savings, error-budget lines), so all
of them gate at :data:`ACCURACY_TOLERANCE`: a move beyond tolerance in
the bad direction is a *regression* and the CLI exits non-zero.
``--strict`` also fails on metrics that vanished from the current run.
Wall-clock speed is gated by ``perfbench/``, not here.

Direction matters: ``error_*``/``mse_*`` regress upward,
``accuracy``/``robustness``/``*_saved`` regress downward.
Tolerances are relative-plus-absolute so tiny denominators don't turn
float dust into failures.
"""

from __future__ import annotations

import json
import pathlib
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import history as _history

__all__ = [
    "Tolerance",
    "ACCURACY_TOLERANCE",
    "DEFAULT_BASELINE_FILE",
    "higher_is_better",
    "MetricVerdict",
    "ComparisonResult",
    "compare_metrics",
    "resolve_baseline",
    "compare_history",
]

DEFAULT_BASELINE_FILE = "benchmarks/baseline.json"
"""The one tracked benchmark artifact: a committed history entry."""


@dataclass(frozen=True)
class Tolerance:
    """A metric moved only if it changed by more than rel *and* abs."""

    rel: float
    abs: float

    def exceeded(self, baseline: float, current: float) -> bool:
        return abs(current - baseline) > abs(baseline) * self.rel + self.abs


ACCURACY_TOLERANCE = Tolerance(rel=0.10, abs=0.005)
"""Accuracy metrics are deterministic per seed; 10% headroom covers
cross-platform float drift, not algorithmic change."""

_HIGHER_BETTER_TOKENS = (
    "speedup",
    "accuracy",
    "robustness",
    "saved",
    "utilization",
    "improvement",
    "snr",
    "per_second",
)


def higher_is_better(name: str) -> bool:
    """Regression direction: errors/MSE/seconds regress up, these down."""
    return any(tok in name for tok in _HIGHER_BETTER_TOKENS)


@dataclass(frozen=True)
class MetricVerdict:
    """One metric's baseline-vs-current outcome."""

    name: str
    status: str
    """``ok`` | ``improved`` | ``regressed`` | ``missing`` | ``new``."""
    baseline: Optional[float] = None
    current: Optional[float] = None

    @property
    def delta(self) -> Optional[float]:
        if self.baseline is None or self.current is None:
            return None
        return self.current - self.baseline

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "status": self.status,
            "baseline": self.baseline,
            "current": self.current,
            "delta": self.delta,
        }


@dataclass
class ComparisonResult:
    """The full verdict set plus the gate decision."""

    baseline_label: str
    current_label: str
    verdicts: List[MetricVerdict] = field(default_factory=list)

    def by_status(self, status: str) -> List[MetricVerdict]:
        return [v for v in self.verdicts if v.status == status]

    @property
    def accuracy_regressions(self) -> List[MetricVerdict]:
        return self.by_status("regressed")

    @property
    def missing(self) -> List[MetricVerdict]:
        return self.by_status("missing")

    def exit_code(self, strict: bool = False) -> int:
        """0 = gate passes.  Regressions always fail; strict mode also
        fails on vanished metrics."""
        if self.accuracy_regressions or (strict and self.missing):
            return 1
        return 0

    def to_dict(self, strict: bool = False) -> Dict[str, object]:
        return {
            "baseline": self.baseline_label,
            "current": self.current_label,
            "strict": strict,
            "exit_code": self.exit_code(strict),
            "counts": {
                status: len(self.by_status(status))
                for status in ("ok", "improved", "regressed", "missing", "new")
            },
            "verdicts": [v.to_dict() for v in self.verdicts],
        }

    def render(self, strict: bool = False, max_ok: int = 0) -> str:
        """Human summary: every non-ok verdict, then the gate line."""
        lines = [
            f"Comparing current [{self.current_label}] "
            f"against baseline [{self.baseline_label}]"
        ]
        interesting = [v for v in self.verdicts if v.status not in ("ok", "new")]
        shown_ok = self.by_status("ok")[:max_ok]
        for verdict in interesting + shown_ok:
            base = "-" if verdict.baseline is None else f"{verdict.baseline:.6g}"
            cur = "-" if verdict.current is None else f"{verdict.current:.6g}"
            lines.append(
                f"  {verdict.status.upper():<9} {verdict.name}: {base} -> {cur}"
            )
        counts = self.to_dict(strict)["counts"]
        lines.append(
            "  "
            + ", ".join(f"{status}={n}" for status, n in counts.items() if n)
        )
        code = self.exit_code(strict)
        lines.append(
            "verdict: PASS" if code == 0 else "verdict: FAIL (regression gate)"
        )
        return "\n".join(lines)


def compare_metrics(
    baseline: Dict[str, float],
    current: Dict[str, float],
    baseline_label: str = "baseline",
    current_label: str = "current",
    accuracy_tolerance: Tolerance = ACCURACY_TOLERANCE,
) -> ComparisonResult:
    """Judge every metric present on either side."""
    result = ComparisonResult(baseline_label=baseline_label, current_label=current_label)
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        cur = current.get(name)
        if base is None:
            status = "new"
        elif cur is None:
            status = "missing"
        elif not accuracy_tolerance.exceeded(base, cur):
            status = "ok"
        elif (cur > base) == higher_is_better(name):
            status = "improved"
        else:
            status = "regressed"
        result.verdicts.append(
            MetricVerdict(name=name, status=status, baseline=base, current=cur)
        )
    return result


def resolve_baseline(
    history: Sequence[Dict[str, object]],
    baseline_sha: Optional[str] = None,
    baseline_file: "Optional[str | pathlib.Path]" = DEFAULT_BASELINE_FILE,
) -> Optional[Tuple[str, Dict[str, float]]]:
    """Find the baseline metrics: ``(label, metrics)`` or None.

    Resolution order: history entries for the named SHA (averaged over
    repeated runs) > the committed snapshot file > the latest history
    entry from a *different* commit than the newest one (so "compare
    against where this branch started" works with no arguments).
    """
    if baseline_sha:
        entries = _history.entries_for_sha(history, baseline_sha)
        if entries:
            return (f"history:{baseline_sha[:12]}", _history.aggregate_metrics(entries))
    snapshot = _load_baseline_file(baseline_file)
    if snapshot is not None:
        return snapshot
    newest = _history.latest_entry(history)
    if newest is not None:
        newest_sha = newest.get("git_sha")
        older = [e for e in history if e.get("git_sha") != newest_sha]
        if older:
            prior = _history.latest_entry(older)
            sha = str(prior.get("git_sha") or "unknown")
            pool = _history.entries_for_sha(older, sha) if prior.get("git_sha") else [prior]
            return (f"history:{sha[:12]}", _history.aggregate_metrics(pool))
    return None


def _load_baseline_file(
    baseline_file: "Optional[str | pathlib.Path]",
) -> Optional[Tuple[str, Dict[str, float]]]:
    if baseline_file is None:
        return None
    path = pathlib.Path(baseline_file)
    if not path.exists():
        return None
    try:
        entry = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    metrics = entry.get("metrics") if isinstance(entry, dict) else None
    if not isinstance(metrics, dict):
        return None
    sha = str(entry.get("git_sha") or "unknown")
    return (
        f"snapshot:{path.name}@{sha[:12]}",
        {
            k: float(v)
            for k, v in metrics.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        },
    )


def compare_history(
    history_path: "Optional[str | pathlib.Path]" = None,
    baseline_sha: Optional[str] = None,
    baseline_file: "Optional[str | pathlib.Path]" = DEFAULT_BASELINE_FILE,
    accuracy_tolerance: Tolerance = ACCURACY_TOLERANCE,
    kind: Optional[str] = None,
) -> Optional[ComparisonResult]:
    """End-to-end gate: latest history entry vs resolved baseline.

    The *current* side averages every history entry sharing the newest
    entry's git SHA (repeated-run smoothing).  Returns None when either
    side cannot be resolved — the CLI reports that as "nothing to
    compare" rather than a failure.

    ``kind`` restricts both sides to entries of one history kind (e.g.
    ``"errorbudget"``), so attribution drift is gated against the
    errorbudget baseline instead of being averaged with bench entries
    of the same commit.
    """
    history = _history.load_history(history_path)
    # Entries of a kind no producer registered would otherwise be
    # skipped without a trace (a typo'd kind, or a new subsystem whose
    # kind was never added to KNOWN_KINDS).  Warn with a count so they
    # cannot be dropped unnoticed.  An explicitly requested --kind is
    # honoured even when unregistered.
    recognized = _history.KNOWN_KINDS | ({kind} if kind is not None else set())
    unknown = [e for e in history if _history.entry_kind(e) not in recognized]
    if unknown:
        unknown_kinds = sorted({_history.entry_kind(e) for e in unknown})
        warnings.warn(
            f"compare is ignoring {len(unknown)} history "
            f"entr{'y' if len(unknown) == 1 else 'ies'} of unknown kind "
            f"{unknown_kinds} (known kinds: {sorted(_history.KNOWN_KINDS)}); "
            "register new kinds in repro.obs.history.KNOWN_KINDS or select "
            "one explicitly with --kind",
            RuntimeWarning,
            stacklevel=2,
        )
        history = [e for e in history if _history.entry_kind(e) in recognized]
    if kind is not None:
        history = _history.entries_of_kind(history, kind)
    newest = _history.latest_entry(history)
    if newest is None:
        return None
    current_sha = newest.get("git_sha")
    pool = (
        _history.entries_for_sha(history, str(current_sha)) if current_sha else [newest]
    )
    current = _history.aggregate_metrics(pool)
    current_label = f"history:{str(current_sha or 'unknown')[:12]} (n={len(pool)})"
    resolved = resolve_baseline(history, baseline_sha, baseline_file)
    if resolved is None:
        return None
    label, baseline = resolved
    return compare_metrics(
        baseline,
        current,
        baseline_label=label,
        current_label=current_label,
        accuracy_tolerance=accuracy_tolerance,
    )
