"""One order-preserving fan-out loop for independent tasks.

The evaluation plane of this repository — Table 1 rows, the Fig. 4/5
Monte-Carlo sweeps, DSE hidden-size ladders, seed repeats, the fault
campaign — is a set of pure, independent tasks.  :func:`get_executor`
returns an :class:`Executor` whose ``map`` runs them:

* kind ``serial`` (or one worker, or at most one item) — a list
  comprehension, the reference path;
* kind ``thread`` — a thread pool, for work that releases the GIL
  (large NumPy matmuls, the MNA sparse solves);
* kind ``process`` — a process pool, for Python-bound work (training
  loops); each task and its item travel to the worker as one pickle.

Both pool kinds run through one loop (``submit`` plus
``wait(FIRST_COMPLETED)``).  Without a policy each task runs once and
its exception reaches the caller unchanged; work that cannot be
pickled, or a process pool that breaks, sends the unfinished tasks to
serial execution in the parent with a :class:`RuntimeWarning`.  A
:class:`RetryPolicy` adds campaign-grade resilience:

* **stall timeout** — if no task completes within ``policy.timeout``
  seconds the pool is torn down and its unfinished tasks resubmitted
  to a fresh pool.  The window resets on every completion, so only
  genuine no-progress trips it.  A stalled process pool's workers are
  terminated; a stalled *thread* cannot be killed, so it is left
  running and the interpreter waits for it at exit.
* **bounded retry with exponential backoff** — a task that raises is
  re-run up to ``policy.retries`` times.
* **crashed-worker resubmission** — a broken process pool charges one
  attempt to every unfinished task (the culprit cannot be identified
  from the parent), rebuilds the pool and resubmits.
* **serial degradation** — tasks that use up their retries, work that
  cannot be pickled, or a pool that breaks or stalls more than
  :data:`MAX_POOL_REBUILDS` times run in the parent; a task that fails
  even there raises :class:`TaskError` with the real cause chained.

Every path keeps input order and tasks are pure, so serial and pooled
runs return bit-identical results: resilience changes *where* a task
runs, never its seeds.  A task that kills its own process kills the
caller once it degrades to the parent — by then it has already killed
``retries`` workers, so the loud death is deliberate.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time
import warnings
from concurrent import futures as cf
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

from repro.config import knobs
from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger

__all__ = [
    "WORKERS_ENV",
    "EXECUTOR_ENV",
    "TASK_TIMEOUT_ENV",
    "TASK_RETRIES_ENV",
    "MAX_BACKOFF",
    "MAX_POOL_REBUILDS",
    "RetryPolicy",
    "TaskError",
    "ResilienceReport",
    "Executor",
    "resolve_workers",
    "get_executor",
]

WORKERS_ENV = "REPRO_WORKERS"
"""Environment variable holding the default worker count."""

EXECUTOR_ENV = "REPRO_EXECUTOR"
"""Environment variable selecting the executor kind for multi-worker
runs: ``serial``, ``thread`` or ``process`` (default ``process``)."""

TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"
"""Environment knob: stall timeout in seconds (unset = wait forever)."""

TASK_RETRIES_ENV = "REPRO_TASK_RETRIES"
"""Environment knob: per-task re-execution budget (default 2)."""

MAX_BACKOFF = 2.0
"""Upper bound on one backoff sleep, in seconds."""

MAX_POOL_REBUILDS = 3
"""Pool incidents (crash or stall) tolerated before every remaining
task degrades to serial execution in the parent."""

T = TypeVar("T")
R = TypeVar("R")

_log = get_logger("parallel")


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


@dataclass(frozen=True)
class RetryPolicy:
    """Failure handling for one map.

    Parameters
    ----------
    timeout:
        Stall timeout in seconds; ``None`` waits forever.
    retries:
        Re-executions granted to each task after its first failure
        before it degrades to the serial fallback.
    backoff:
        Base sleep between failure rounds; doubles each round, capped
        at :data:`MAX_BACKOFF`.
    """

    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")

    @classmethod
    def from_env(
        cls,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
    ) -> "RetryPolicy":
        """Policy from ``REPRO_TASK_TIMEOUT`` / ``REPRO_TASK_RETRIES``.

        Explicit arguments override the environment, which overrides
        the dataclass defaults.
        """
        if timeout is None:
            timeout = knobs.get_float(TASK_TIMEOUT_ENV)
        if retries is None:
            retries = knobs.get_int(TASK_RETRIES_ENV)
        return cls(timeout=timeout, retries=retries if retries is not None else 2)

    def sleep_for(self, round_index: int) -> float:
        """Backoff before failure round ``round_index`` (0-based)."""
        return float(min(self.backoff * (2 ** round_index), MAX_BACKOFF))


class TaskError(RuntimeError):
    """A task failed terminally, even on the serial fallback path."""

    def __init__(self, index: int, attempts: int, cause: BaseException) -> None:
        super().__init__(
            f"task {index} failed after {attempts} attempt(s): {cause!r}"
        )
        self.index = index
        self.attempts = attempts
        self.__cause__ = cause


@dataclass
class ResilienceReport:
    """Telemetry of one map (embedded in campaign manifests)."""

    tasks: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    pool_rebuilds: int = 0
    serial_fallback_tasks: int = 0
    degraded: bool = False
    events: List[str] = field(default_factory=list)

    def record(self, event: str) -> None:
        self.events.append(event)
        _log.warning("resilience event", extra={"fields": {"event": event}})

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclass
class _TaskOutcome:
    """A worker's result plus the telemetry it produced."""

    result: object
    queue_wait: float
    exec_seconds: float
    metrics: Optional[Dict[str, Dict[str, object]]] = None


class _ObsTask:
    """Task wrapper adding per-task telemetry to a pool map.

    Measures queue wait (submit -> start) and execute time, and — when
    the task runs in a *different process* — ships the metric deltas
    the task produced back to the parent, which absorbs them so
    parallel sweeps and serial runs report the same totals.  Picklable
    exactly when the wrapped ``fn`` is.
    """

    __slots__ = ("fn", "parent_pid", "enqueued")

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn
        self.parent_pid = os.getpid()
        self.enqueued = time.time()

    def __call__(self, item: Any) -> _TaskOutcome:
        started = time.time()
        foreign = os.getpid() != self.parent_pid
        metrics_before = obs_metrics.snapshot() if foreign else None
        t0 = time.perf_counter()
        result = self.fn(item)
        outcome = _TaskOutcome(
            result=result,
            queue_wait=max(0.0, started - self.enqueued),
            exec_seconds=time.perf_counter() - t0,
        )
        if foreign:
            outcome.metrics = obs_metrics.diff(metrics_before, obs_metrics.snapshot())
        return outcome


def _absorb(outcome: _TaskOutcome) -> object:
    """Unwrap one worker outcome, folding its telemetry into this process."""
    obs_metrics.histogram("executor_queue_wait_seconds").observe(outcome.queue_wait)
    obs_metrics.histogram("executor_task_seconds").observe(outcome.exec_seconds)
    if outcome.metrics:
        obs_metrics.merge(outcome.metrics)
    obs_metrics.counter("executor_tasks").inc()
    return outcome.result


def _charge(index: int, pending: Dict[int, int], leftover: Dict[int, int],
            retries: int) -> bool:
    """Charge a pending task one attempt; False once out of ``retries``
    (the task then moves to ``leftover``)."""
    attempts = pending[index] + 1
    if attempts > retries:
        del pending[index]
        leftover[index] = attempts
        return False
    pending[index] = attempts
    return True


def _shutdown(pool: cf.Executor, abandon: bool) -> None:
    """Shut a pool down; a stalled or broken one is not joined.

    A hung process worker keeps running after ``shutdown(wait=False)``
    and holds the interpreter at exit, because ``concurrent.futures``
    joins its workers in an exit hook.  Python 3.10–3.12 have no public
    API to stop a pool's workers, so an abandoned pool's workers are
    terminated through its private ``_processes`` table.  A hung thread
    cannot be stopped; it is left running.
    """
    doomed = list((getattr(pool, "_processes", None) or {}).values()) if abandon else []
    pool.shutdown(wait=not abandon, cancel_futures=True)
    for process in doomed:
        process.terminate()


def _run_serial(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    results: List[Any],
    leftover: Dict[int, int],
    policy: Optional[RetryPolicy],
    report: ResilienceReport,
) -> None:
    """Run the ``leftover`` tasks (index -> attempts so far) in-parent."""
    for index in sorted(leftover):
        attempts = leftover[index]
        while True:
            try:
                results[index] = fn(items[index])
                break
            except Exception as exc:
                if policy is None:
                    raise
                attempts += 1
                if attempts > policy.retries:
                    raise TaskError(index, attempts, exc) from exc
                report.retries += 1
                report.record(f"task {index} raised {type(exc).__name__}; "
                              f"retry {attempts}/{policy.retries}")
                time.sleep(policy.sleep_for(attempts - 1))


@dataclass
class Executor:
    """Order-preserving ``map`` over independent tasks.

    ``workers`` and ``kind`` (``serial``, ``thread`` or ``process``)
    are plain attributes; :func:`get_executor` resolves them from
    arguments and the environment.
    """

    workers: int = 1
    kind: str = "serial"

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        policy: Optional[RetryPolicy] = None,
        report: Optional[ResilienceReport] = None,
    ) -> List[R]:
        """Run ``fn`` over ``items``, results in input order.

        ``policy`` switches on retry, stall and crash handling (see the
        module docstring); its counts land in ``report`` when given.
        """
        items = list(items)
        pooled = self.kind != "serial" and self.workers > 1 and len(items) > 1
        if policy is None and not pooled:
            return [fn(item) for item in items]
        report = report if report is not None else ResilienceReport()
        report.tasks = len(items)
        results: List[Any] = [None] * len(items)
        leftover = {index: 0 for index in range(len(items))}
        if pooled:
            leftover = self._pooled(fn, items, results, policy, report)
        if leftover and pooled and policy is not None:
            report.degraded = True
            report.serial_fallback_tasks += len(leftover)
            obs_metrics.counter("resilient_serial_fallback").inc(len(leftover))
            report.record(
                f"degrading {len(leftover)} task(s) to the serial executor"
            )
        _run_serial(fn, items, results, leftover, policy, report)
        if report.degraded:
            obs_metrics.counter("resilient_degraded_maps").inc()
        return results

    def _pooled(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        results: List[Any],
        policy: Optional[RetryPolicy],
        report: ResilienceReport,
    ) -> Dict[int, int]:
        """The pool loop, for every pooled kind.

        Returns the tasks (index -> attempts so far) left for the
        parent; every other result is in ``results``.
        """
        pending = {index: 0 for index in range(len(items))}
        leftover: Dict[int, int] = {}
        # No policy: no timeout, and a task error propagates (below).
        retry = policy if policy is not None else RetryPolicy(retries=0)
        depth = obs_metrics.gauge("executor_queue_depth")
        call = _ObsTask(fn)
        if self.kind == "thread":
            from repro.sanitize import rng as sanitize_rng

            # One generator shipped in two payloads means two worker
            # threads interleaving draws on one stream — flag it
            # before the pool scrambles the evidence.
            sanitize_rng.scan_items("thread-executor", items)
        else:
            try:
                pickle.dumps((call, items))
            except Exception:
                warnings.warn(
                    "task function or arguments are not picklable; "
                    "falling back to serial execution",
                    RuntimeWarning,
                    stacklevel=3,
                )
                report.record("work not picklable; serial from the start")
                return pending
        incidents = failure_rounds = 0
        busy = 0.0
        t0 = time.perf_counter()
        while pending:
            if incidents > MAX_POOL_REBUILDS:
                report.record(
                    f"pool broke/stalled {incidents} times "
                    f"(max {MAX_POOL_REBUILDS}); abandoning pooling"
                )
                break
            size = min(self.workers, len(pending))
            # Managed by hand, not by `with`: a stalled or broken pool
            # must be abandoned (see _shutdown), never joined.
            pool = (
                cf.ThreadPoolExecutor(max_workers=size)  # repro-lint: disable=RPR010
                if self.kind == "thread"
                else cf.ProcessPoolExecutor(max_workers=size)  # repro-lint: disable=RPR010
            )
            incident = None  # "crash" | "stall"
            retried = False
            waiting: set = set()
            try:
                index_of = {
                    pool.submit(call, items[index]): index
                    for index in sorted(pending)
                }
                waiting = set(index_of)
                depth.add(len(waiting))
                while waiting and incident is None:
                    done, waiting = cf.wait(
                        waiting, timeout=retry.timeout,
                        return_when=cf.FIRST_COMPLETED,
                    )
                    depth.add(-len(done))
                    if not done:
                        incident = "stall"
                        report.timeouts += 1
                        obs_metrics.counter("resilient_timeouts").inc()
                        report.record(
                            f"no task completed within {retry.timeout}s; "
                            f"{len(waiting)} unfinished — rebuilding pool"
                        )
                    for future in done:
                        index = index_of[future]
                        try:
                            outcome = future.result()
                        except cf.BrokenExecutor:
                            incident = "crash"
                        except Exception as exc:
                            if policy is None:
                                raise
                            name = type(exc).__name__
                            if _charge(index, pending, leftover, retry.retries):
                                retried = True
                                report.retries += 1
                                obs_metrics.counter("resilient_retries").inc()
                                report.record(f"task {index} raised {name}; "
                                              f"retry {pending[index]}/{retry.retries}")
                            else:
                                report.record(f"task {index} exhausted "
                                              f"{retry.retries} retries ({name})")
                        else:
                            busy += outcome.exec_seconds
                            results[index] = _absorb(outcome)
                            del pending[index]
            except cf.BrokenExecutor:
                incident = "crash"
            finally:
                depth.add(-len(waiting))  # futures abandoned with the pool
                _shutdown(pool, abandon=incident is not None)
            if incident == "crash" and policy is None:
                warnings.warn(
                    "process pool broke mid-sweep; re-running serially",
                    RuntimeWarning,
                    stacklevel=3,
                )
                break
            if incident == "crash":
                report.crashes += 1
                obs_metrics.counter("resilient_crashes").inc()
                report.record(
                    f"worker crashed (pool broken); resubmitting "
                    f"{len(pending)} unfinished task(s)"
                )
            if incident is not None:
                incidents += 1
                report.pool_rebuilds += 1
                # The culprit cannot be identified from the parent:
                # charge one attempt to every task still in flight.
                for index in list(pending):
                    _charge(index, pending, leftover, retry.retries)
                if pending:
                    obs_metrics.counter("resilient_resubmissions").inc(len(pending))
            if pending and (incident is not None or retried):
                time.sleep(retry.sleep_for(failure_rounds))
                failure_rounds += 1
        leftover.update(pending)
        wall = time.perf_counter() - t0
        obs_metrics.gauge("executor_utilization").set(
            busy / (min(self.workers, len(items)) * wall) if wall > 0 else 0.0
        )
        return leftover


def get_executor(
    workers: Optional[int] = None, kind: Optional[str] = None
) -> Executor:
    """Build the executor implied by arguments and environment.

    ``workers`` resolves via :func:`resolve_workers`; one worker yields
    a serial executor, more yield the kind selected by the ``kind``
    argument or ``REPRO_EXECUTOR`` (default ``process``).
    """
    count = resolve_workers(workers)
    if count <= 1:
        return Executor()
    kind = kind if kind is not None else (knobs.get_str(EXECUTOR_ENV) or "process")
    kind = (kind.strip() or "process").lower()
    if kind not in ("serial", "thread", "process"):
        raise ValueError(f"unknown executor kind {kind!r}; use serial, thread or process")
    return Executor(1 if kind == "serial" else count, kind)
