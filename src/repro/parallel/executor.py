"""Executor abstraction for embarrassingly-parallel sweeps.

The evaluation plane of this repository — Monte-Carlo robustness
statistics, DSE hidden-size ladders, seed repeats, per-benchmark
experiment rows — is a set of pure, independent tasks.  This module
provides a minimal, deterministic ``map`` abstraction over them:

* :class:`SerialExecutor` — the reference implementation (a list
  comprehension);
* :class:`ThreadExecutor` — threads; useful when the work releases the
  GIL (large NumPy matmuls, the MNA sparse solves);
* :class:`ProcessExecutor` — a :class:`concurrent.futures.ProcessPoolExecutor`
  for Python-bound work (training loops).  Falls back to serial
  execution, with a warning, when the task function or its arguments
  cannot be pickled — results are identical either way because tasks
  are pure.

Worker counts resolve from (in priority order) an explicit argument,
the ``REPRO_WORKERS`` environment variable, and a serial default of 1;
the executor kind resolves from ``REPRO_EXECUTOR``
(``serial`` / ``thread`` / ``process``).  All executors preserve input
order, so parallel and serial runs return bit-identical result lists
for deterministic tasks.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

from repro.config import knobs
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.log import get_logger

__all__ = [
    "WORKERS_ENV",
    "EXECUTOR_ENV",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "resolve_workers",
    "get_executor",
    "parallel_map",
]

WORKERS_ENV = "REPRO_WORKERS"
"""Environment variable holding the default worker count."""

EXECUTOR_ENV = "REPRO_EXECUTOR"
"""Environment variable selecting the executor kind for multi-worker
runs: ``serial``, ``thread`` or ``process`` (default ``process``)."""

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``REPRO_WORKERS`` > 1."""
    if workers is None:
        raw = (knobs.get_raw(WORKERS_ENV) or "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            warnings.warn(
                f"ignoring non-integer {WORKERS_ENV}={raw!r}; running serially",
                RuntimeWarning,
                stacklevel=2,
            )
            return 1
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


_log = get_logger("parallel")


@dataclass
class _TaskOutcome:
    """A worker's result plus the telemetry it produced."""

    result: object
    queue_wait: float
    exec_seconds: float
    spans: Optional[List[obs_trace.SpanRecord]] = None
    metrics: Optional[Dict[str, Dict[str, object]]] = field(default=None)


class _ObsTask:
    """Task wrapper adding per-task telemetry to a pool map.

    Measures queue wait (submit -> start) and execute time, and — when
    the task runs in a *different process* — ships the spans and
    metric deltas the task produced back to the parent, which absorbs
    them so parallel sweeps and serial runs report the same tree and
    totals.  Picklable exactly when the wrapped ``fn`` is.
    """

    __slots__ = ("fn", "parent_pid", "context", "trace_on", "enqueued")

    def __init__(self, fn: Callable):
        self.fn = fn
        self.parent_pid = os.getpid()
        self.context = obs_trace.current_path()
        self.trace_on = obs_trace.enabled()
        self.enqueued = time.time()

    def __call__(self, item):
        started = time.time()
        foreign = os.getpid() != self.parent_pid
        span_mark = metrics_before = None
        if self.trace_on:
            if foreign:
                # A spawn-started worker loses the parent's runtime
                # enable flag (fork inherits it); set both either way.
                obs_trace.enable(True)
                span_mark = obs_trace.mark()
            obs_trace.set_context(self.context)
        if foreign:
            metrics_before = obs_metrics.snapshot()
        t0 = time.perf_counter()
        result = self.fn(item)
        exec_seconds = time.perf_counter() - t0
        outcome = _TaskOutcome(
            result=result,
            queue_wait=max(0.0, started - self.enqueued),
            exec_seconds=exec_seconds,
        )
        if foreign:
            if span_mark is not None:
                outcome.spans = obs_trace.records_since(span_mark)
            outcome.metrics = obs_metrics.diff(metrics_before, obs_metrics.snapshot())
        return outcome


def _drain(pool, task: Callable, items: Sequence) -> List[_TaskOutcome]:
    """Consume ``pool.map`` incrementally, tracking live queue depth.

    The ``executor_queue_depth`` gauge counts tasks submitted but not
    yet yielded; decrementing as the (order-preserving) iterator
    yields lets a ``/metrics`` scrape watch a sweep drain in real time
    instead of seeing one opaque blocking call.
    """
    depth = obs_metrics.gauge("executor_queue_depth")
    depth.add(len(items))
    outcomes: List[_TaskOutcome] = []
    try:
        for outcome in pool.map(task, items):
            outcomes.append(outcome)
            depth.add(-1)
    finally:
        # On an exception (e.g. BrokenProcessPool) the unfinished
        # remainder never yields; settle the gauge before unwinding.
        depth.add(-(len(items) - len(outcomes)))
    return outcomes


def _harvest(
    outcomes: Sequence[_TaskOutcome], workers: int, wall_seconds: float, kind: str
) -> List:
    """Unwrap outcomes, folding worker telemetry into this process."""
    results = []
    busy = 0.0
    queue_hist = obs_metrics.histogram("executor_queue_wait_seconds")
    task_hist = obs_metrics.histogram("executor_task_seconds")
    for outcome in outcomes:
        results.append(outcome.result)
        busy += outcome.exec_seconds
        queue_hist.observe(outcome.queue_wait)
        task_hist.observe(outcome.exec_seconds)
        if outcome.spans:
            obs_trace.absorb(outcome.spans)
        if outcome.metrics:
            obs_metrics.merge(outcome.metrics)
    obs_metrics.counter("executor_tasks").inc(len(outcomes))
    utilization = (
        busy / (workers * wall_seconds) if workers and wall_seconds > 0 else 0.0
    )
    obs_metrics.gauge("executor_utilization").set(utilization)
    if _log.isEnabledFor(10):  # DEBUG
        _log.debug(
            "%s map done",
            kind,
            extra={
                "fields": {
                    "tasks": len(outcomes),
                    "workers": workers,
                    "wall_s": round(wall_seconds, 4),
                    "busy_s": round(busy, 4),
                    "utilization": round(utilization, 3),
                }
            },
        )
    return results


class Executor:
    """Order-preserving ``map`` over independent tasks."""

    workers: int = 1

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """The in-process reference executor."""

    workers = 1

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        return [fn(item) for item in items]


class ThreadExecutor(Executor):
    """Thread-pool executor for GIL-releasing (NumPy/SciPy-bound) tasks."""

    def __init__(self, workers: int):
        self.workers = resolve_workers(workers)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        if self.workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        from concurrent.futures import ThreadPoolExecutor

        from repro.sanitize import rng as sanitize_rng

        # One generator shipped in two payloads means two worker
        # threads interleaving draws on one stream — flag it before
        # the pool scrambles the evidence.
        sanitize_rng.scan_items("thread-executor", items)
        pool_size = min(self.workers, len(items))
        with obs_trace.span("parallel_map", kind="thread", tasks=len(items),
                            workers=pool_size):
            task = _ObsTask(fn)
            t0 = time.perf_counter()
            with ThreadPoolExecutor(max_workers=pool_size) as pool:
                outcomes = _drain(pool, task, items)
            return _harvest(outcomes, pool_size, time.perf_counter() - t0, "thread")


class ProcessExecutor(Executor):
    """Process-pool executor for Python-bound tasks.

    Tasks must be picklable to cross the process boundary; when they
    are not (lambdas, closures over local state), the map degrades to
    the serial reference path with a :class:`RuntimeWarning` instead of
    failing — the results are identical because sweep tasks are pure.
    """

    def __init__(self, workers: int):
        self.workers = resolve_workers(workers)

    @staticmethod
    def _picklable(*objects) -> bool:
        try:
            for obj in objects:
                pickle.dumps(obj)
        except Exception:
            return False
        return True

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        if self.workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        from repro.parallel import shm as shm_mod

        if shm_mod.shm_enabled():
            return self._map_shm(fn, items)
        if not self._picklable(fn, items):
            warnings.warn(
                "task function or arguments are not picklable; "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            return [fn(item) for item in items]
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        pool_size = min(self.workers, len(items))
        try:
            with obs_trace.span("parallel_map", kind="process", tasks=len(items),
                                workers=pool_size):
                task = _ObsTask(fn)
                t0 = time.perf_counter()
                with ProcessPoolExecutor(max_workers=pool_size) as pool:
                    outcomes = _drain(pool, task, items)
                return _harvest(outcomes, pool_size, time.perf_counter() - t0, "process")
        except BrokenProcessPool:
            warnings.warn(
                "process pool broke mid-sweep; re-running serially",
                RuntimeWarning,
                stacklevel=2,
            )
            return [fn(item) for item in items]

    def _map_shm(self, fn: Callable[[T], R], items: List[T]) -> List[R]:
        """Map via the shared-memory transport (``REPRO_SHM=1``).

        Large arrays in the task function and items ship as
        zero-copy shared segments instead of per-task pickles; see
        :mod:`repro.parallel.shm`.  Falls back to serial execution with
        a warning exactly like the default path when payloads cannot
        be pickled at all.
        """
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        from repro.parallel import shm as shm_mod

        with shm_mod.ShmSession() as session:
            try:
                task = _ObsTask(fn)
                task_blob = shm_mod.dumps(task, session)
                item_blobs = [shm_mod.dumps(item, session) for item in items]
            except Exception:
                warnings.warn(
                    "task function or arguments are not picklable; "
                    "falling back to serial execution",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return [fn(item) for item in items]
            pool_size = min(self.workers, len(items))
            try:
                with obs_trace.span("parallel_map", kind="process-shm",
                                    tasks=len(items), workers=pool_size):
                    t0 = time.perf_counter()
                    with ProcessPoolExecutor(max_workers=pool_size) as pool:
                        outcomes = _drain(pool, shm_mod.ShmCall(task_blob), item_blobs)
                    return _harvest(
                        outcomes, pool_size, time.perf_counter() - t0, "process-shm"
                    )
            except BrokenProcessPool:
                warnings.warn(
                    "process pool broke mid-sweep; re-running serially",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return [fn(item) for item in items]


def get_executor(
    workers: Optional[int] = None, kind: Optional[str] = None
) -> Executor:
    """Build the executor implied by arguments and environment.

    ``workers`` resolves via :func:`resolve_workers`; one worker yields
    the :class:`SerialExecutor`, more yield the kind selected by the
    ``kind`` argument or ``REPRO_EXECUTOR`` (default ``process``).
    """
    count = resolve_workers(workers)
    if count <= 1:
        return SerialExecutor()
    kind = kind if kind is not None else (knobs.get_str(EXECUTOR_ENV) or "process")
    kind = (kind.strip() or "process").lower()
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(count)
    if kind == "process":
        return ProcessExecutor(count)
    raise ValueError(f"unknown executor kind {kind!r}; use serial, thread or process")


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = None,
    executor: Optional[Executor] = None,
) -> List[R]:
    """Map ``fn`` over ``items`` on the configured executor."""
    executor = executor if executor is not None else get_executor(workers)
    return executor.map(fn, items)
