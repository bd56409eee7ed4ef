"""Lightweight metrics registry: counters, gauges, histograms.

The pipeline's quantitative telemetry — epochs run, Monte-Carlo trials
evaluated, crossbar MACs issued, MNA solves, executor task latencies —
accumulates in one process-wide :class:`MetricsRegistry`.  Call sites
are coarse (one update per training run / forward pass / solve), so
the registry is always on; a metric update is a dict lookup plus a
lock-guarded add.

Histograms are *streaming quantile sketches*: alongside
count/sum/min/max they bin every observation into a fixed, log-spaced
bucket ladder (:data:`BUCKET_BOUNDS`), so p50/p95/p99 are available
*during* a run (:meth:`Histogram.quantile`) without storing samples —
bounded memory, and exactly mergeable across processes because every
histogram shares the same bucket bounds.

Cross-process sweeps: a :class:`ProcessExecutor` worker snapshots the
registry before and after each task and ships the :func:`diff` home,
where the parent :func:`merge`\\ s it — so ``snapshot()`` after a
parallel sweep matches the serial run's totals, bucket for bucket.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Dict, Iterable, Optional, Sequence, Tuple

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "merge",
    "diff",
    "clear",
    "reset",
    "quantile_from_summary",
]

BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    mantissa * (10.0 ** exponent)
    for exponent in range(-4, 4)
    for mantissa in (1.0, 2.5, 5.0)
) + (math.inf,)
"""Shared upper bucket bounds (1-2.5-5 per decade, 100µs..5000s, +Inf).

One fixed ladder for every histogram keeps sketches exactly mergeable
across workers and runs: merging is element-wise bucket addition, so a
``ProcessExecutor`` sweep reports the same quantile estimates a serial
run would."""


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """Last-set value (e.g. worker utilization of the latest sweep)."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, delta: float) -> None:
        """Shift the gauge by ``delta`` (live up/down tracking, e.g.
        active shared-memory bytes or executor queue depth)."""
        with self._lock:
            self.value += float(delta)


class Histogram:
    """Streaming quantile sketch: count/sum/min/max plus bucket counts.

    Observations bin into the shared :data:`BUCKET_BOUNDS` ladder, so
    :meth:`quantile` answers p50/p95/p99 live, in bounded memory, and
    two sketches merge exactly (element-wise bucket addition).
    """

    __slots__ = ("_lock", "count", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets = [0] * len(BUCKET_BOUNDS)

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(BUCKET_BOUNDS, value)
        with self._lock:
            self.count += 1
            self.sum += value
            self.buckets[index] += 1
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def observe_many(self, values: Iterable[float]) -> None:
        values = [float(v) for v in values]
        if not values:
            return
        indices = [bisect.bisect_left(BUCKET_BOUNDS, v) for v in values]
        with self._lock:
            self.count += len(values)
            self.sum += sum(values)
            for index in indices:
                self.buckets[index] += 1
            self.min = min(self.min, min(values))
            self.max = max(self.max, max(values))

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Streaming quantile estimate from the bucket sketch.

        Linear interpolation inside the bucket holding rank ``q``,
        clamped to the observed ``[min, max]``; NaN with no samples.
        """
        with self._lock:
            return quantile_from_summary(self._summary_locked(), q)

    def quantiles(self, qs: Sequence[float] = (0.5, 0.95, 0.99)) -> Dict[str, float]:
        """Several quantiles in one lock acquisition (``{"p50": ...}``)."""
        with self._lock:
            summary = self._summary_locked()
        return {
            f"p{str(round(q * 100, 1)).rstrip('0').rstrip('.')}":
                quantile_from_summary(summary, q)
            for q in qs
        }

    def _summary_locked(self) -> Dict[str, object]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": None, "max": None,
                    "mean": None, "buckets": list(self.buckets)}
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "min": self.min,
            "max": self.max,
            "mean": self.sum / self.count,
            "buckets": list(self.buckets),
        }

    def summary(self) -> Dict[str, object]:
        with self._lock:
            return self._summary_locked()


def quantile_from_summary(summary: Dict[str, object], q: float) -> float:
    """Quantile estimate from a histogram summary dict (snapshot form).

    Shared by :meth:`Histogram.quantile` and the OpenMetrics
    exposition, so the live endpoint and archived manifests
    agree on the estimator: walk the cumulative bucket counts to the
    bucket holding rank ``q``, interpolate linearly inside it, clamp to
    the recorded ``[min, max]``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    count = int(summary.get("count") or 0)
    buckets = summary.get("buckets")
    if not count:
        return float("nan")
    lo = float(summary.get("min", 0.0) or 0.0)
    hi = float(summary.get("max", 0.0) or 0.0)
    if not isinstance(buckets, (list, tuple)) or len(buckets) != len(BUCKET_BOUNDS):
        # Sketch-less summary (e.g. an old manifest): fall back to the
        # recorded extrema, the only honest bound available.
        return lo if q <= 0.5 else hi
    rank = q * count
    cumulative = 0.0
    for index, bucket_count in enumerate(buckets):
        if not bucket_count:
            continue
        previous = cumulative
        cumulative += bucket_count
        if cumulative >= rank:
            lower = BUCKET_BOUNDS[index - 1] if index else 0.0
            upper = BUCKET_BOUNDS[index]
            if not math.isfinite(upper):
                upper = hi
            lower = max(lower, lo) if cumulative == bucket_count else lower
            fraction = (rank - previous) / bucket_count
            estimate = lower + fraction * max(0.0, upper - lower)
            return float(min(max(estimate, lo), hi))
    return hi


class MetricsRegistry:
    """Named metric store with snapshot / merge / diff support."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter()
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge()
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram()
            return metric

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict (JSON/pickle-safe) view of every metric."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {k: v.value for k, v in sorted(counters.items())},
            "gauges": {k: v.value for k, v in sorted(gauges.items())},
            "histograms": {k: v.summary() for k, v in sorted(histograms.items())},
        }

    def merge(self, snap: Dict[str, Dict[str, object]]) -> None:
        """Fold a snapshot (typically a worker's :func:`diff`) in.

        Counters add; gauges take the incoming value; histograms
        combine count/sum/min/max.
        """
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, summary in snap.get("histograms", {}).items():
            if not summary or not summary.get("count"):
                continue
            metric = self.histogram(name)
            buckets = summary.get("buckets")
            with metric._lock:
                metric.count += int(summary["count"])
                metric.sum += float(summary["sum"])
                if summary.get("min") is not None:
                    metric.min = min(metric.min, float(summary["min"]))
                if summary.get("max") is not None:
                    metric.max = max(metric.max, float(summary["max"]))
                if isinstance(buckets, (list, tuple)) and len(buckets) == len(
                    metric.buckets
                ):
                    for index, bucket_count in enumerate(buckets):
                        metric.buckets[index] += int(bucket_count)

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def diff(
    before: Dict[str, Dict[str, object]], after: Dict[str, Dict[str, object]]
) -> Dict[str, Dict[str, object]]:
    """What happened between two snapshots (worker-task attribution).

    Counter and histogram count/sum deltas are exact; a histogram's
    min/max come from the ``after`` snapshot (a bound, not the exact
    window extremum); gauges are included only when they changed.
    """
    out: Dict[str, Dict[str, object]] = {"counters": {}, "gauges": {}, "histograms": {}}
    for name, value in after.get("counters", {}).items():
        delta = float(value) - float(before.get("counters", {}).get(name, 0.0))
        if delta > 0:
            out["counters"][name] = delta
    for name, value in after.get("gauges", {}).items():
        if before.get("gauges", {}).get(name) != value:
            out["gauges"][name] = value
    for name, summary in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(name) or {"count": 0, "sum": 0.0}
        count = int(summary.get("count", 0)) - int(prior.get("count", 0))
        if count > 0:
            delta: Dict[str, object] = {
                "count": count,
                "sum": float(summary.get("sum", 0.0)) - float(prior.get("sum", 0.0)),
                "min": summary.get("min"),
                "max": summary.get("max"),
            }
            after_buckets = summary.get("buckets")
            if isinstance(after_buckets, (list, tuple)):
                prior_buckets = prior.get("buckets") or [0] * len(after_buckets)
                delta["buckets"] = [
                    int(a) - int(b) for a, b in zip(after_buckets, prior_buckets)
                ]
            out["histograms"][name] = delta
    return out


REGISTRY = MetricsRegistry()
"""The process-wide default registry."""


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return REGISTRY.histogram(name)


def snapshot() -> Dict[str, Dict[str, object]]:
    return REGISTRY.snapshot()


def merge(snap: Optional[Dict[str, Dict[str, object]]]) -> None:
    if snap:
        REGISTRY.merge(snap)


def clear() -> None:
    REGISTRY.clear()


def reset() -> None:
    """Drop every metric in the process-wide registry.

    The public isolation hook: the test suite's autouse fixture calls
    this between tests so counters accumulated by one test never leak
    into another's snapshot, and long-lived services can call it at
    window boundaries.
    """
    REGISTRY.clear()
