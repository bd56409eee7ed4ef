"""The micro-batched request path of the serving layer.

Concurrent value-domain requests are fused into single
``forward_trials`` calls on the deployed system — the vectorized
trials path is the batch engine the crossbar's parallelism pays off
on.  Because every output row of a crossbar pass is an independent
dot product (and the comparator hardens each bit against a 0.5
threshold), batching is invisible: a request decoded out of a fused
batch equals the request served alone.  The property suite in
``tests/test_serve_batcher.py`` proves this over arbitrary
interleavings.

Resilience reuses the executor's :class:`~repro.parallel.RetryPolicy`: batch
evaluation runs on an isolated single-thread pool so a stalled worker
can be abandoned and rebuilt (``RetryPolicy.timeout``), failed batches
are retried with backoff, and a crashed dispatcher resubmits its
in-flight requests — every request's future completes exactly once.

Knobs (``repro.config.knobs``): ``REPRO_SERVE_MAX_BATCH``,
``REPRO_SERVE_QUEUE_LIMIT``, ``REPRO_SERVE_DEADLINE_MS``.

Metrics (``repro.obs.metrics`` registry, exposed over OpenMetrics):
``serve_requests`` / ``serve_responses`` / ``serve_batches`` /
``serve_shed`` / ``serve_deadline_misses`` / ``serve_retries`` /
``serve_worker_restarts`` counters, ``serve_queue_depth`` /
``serve_batch_size`` / ``serve_batch_samples`` gauges and the
``serve_request_latency_seconds`` / ``serve_queue_wait_seconds`` /
``serve_compute_seconds`` histograms (p50/p99 via
``Histogram.quantiles``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Union

import numpy as np

from repro.config import knobs
from repro.core.mei import MEI
from repro.core.saab import SAAB
from repro.device.variation import IDEAL, NonIdealFactors
from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger
from repro.parallel.executor import RetryPolicy

__all__ = [
    "BatchPolicy",
    "DeadlineExceeded",
    "InferenceEngine",
    "MicroBatcher",
    "QueueOverflow",
    "RequestError",
    "ServeError",
]

_log = get_logger("serve.batcher")


class ServeError(RuntimeError):
    """Base class for serving-path failures."""


class QueueOverflow(ServeError):
    """The request queue is full; the request was shed, not queued."""


class DeadlineExceeded(ServeError):
    """The request's deadline passed before it could be served."""


class RequestError(ValueError):
    """The request payload is malformed (shape, range or type)."""


class InferenceEngine:
    """Value-domain prediction on a deployed MEI or SAAB system.

    ``predict`` routes every batch through the system's
    ``predict_trials`` path — encode to bit arrays, one
    ``forward_trials`` crossbar pass, comparator hardening, decode —
    so a fused micro-batch costs a single analog evaluation.
    """

    def __init__(self, system: Union[MEI, SAAB],
                 noise: NonIdealFactors = IDEAL) -> None:
        self.system = system
        self.noise = noise

    @property
    def _first(self) -> MEI:
        if isinstance(self.system, SAAB):
            learner = self.system.learners[0]
            if not isinstance(learner, MEI):
                raise TypeError("serving supports MEI learners only")
            return learner
        return self.system

    @property
    def in_dim(self) -> int:
        return self._first.config.in_groups

    @property
    def out_dim(self) -> int:
        return self._first.config.out_groups

    def validate(self, values: object) -> np.ndarray:
        """Coerce one request to ``(samples, in_dim)`` unit values.

        A 1-D vector is treated as a single sample.  Raises
        :class:`RequestError` on wrong shapes, non-finite entries or
        values outside the codec's ``[0, 1]`` domain.
        """
        try:
            arr = np.asarray(values, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise RequestError(f"request is not numeric: {exc}") from exc
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise RequestError(
                f"request must be one sample or a (samples, {self.in_dim}) "
                f"matrix, got shape {arr.shape}"
            )
        if arr.shape[1] != self.in_dim:
            raise RequestError(
                f"request has {arr.shape[1]} input values per sample, "
                f"model takes {self.in_dim}"
            )
        if not np.all(np.isfinite(arr)):
            raise RequestError("request contains non-finite values")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise RequestError("request values must lie in the unit interval [0, 1]")
        return arr

    def predict(self, batch: np.ndarray) -> np.ndarray:
        """One fused crossbar evaluation of a ``(samples, in_dim)`` batch."""
        return self.system.predict_trials(batch, self.noise, trials=1)[0]


@dataclass(frozen=True)
class BatchPolicy:
    """Micro-batching knobs (see the module docstring for the env names)."""

    max_batch: int = 64
    """Maximum total samples fused into one crossbar pass."""
    queue_limit: int = 256
    """Requests queued beyond this are shed with :class:`QueueOverflow`."""
    deadline: Optional[float] = None
    """Per-request queue deadline in seconds (None = no deadline)."""

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")

    @classmethod
    def from_knobs(cls) -> "BatchPolicy":
        """The policy configured through the ``REPRO_SERVE_*`` knobs."""
        deadline_ms = knobs.get_float("REPRO_SERVE_DEADLINE_MS")
        return cls(
            max_batch=int(knobs.get_int("REPRO_SERVE_MAX_BATCH") or 64),
            queue_limit=int(knobs.get_int("REPRO_SERVE_QUEUE_LIMIT") or 256),
            deadline=None if deadline_ms is None else float(deadline_ms) / 1000.0,
        )


@dataclass
class _Request:
    values: np.ndarray
    samples: int
    future: "Future[np.ndarray]"
    enqueued: float
    deadline_at: Optional[float] = None
    attempts: int = 0
    extra: dict = field(default_factory=dict)


class MicroBatcher:
    """Fuses concurrent requests into single batched evaluations.

    ``submit`` returns a ``concurrent.futures.Future`` (wrap with
    ``asyncio.wrap_future`` from async code).  A dispatcher thread
    takes the queued requests, up to ``policy.max_batch`` samples, as
    soon as the previous batch is done, and evaluates them in one
    ``predict_fn`` call on an isolated evaluation pool.  Use as a
    context manager so shutdown is exception-safe.
    """

    def __init__(
        self,
        predict_fn: Callable[[np.ndarray], np.ndarray],
        policy: Optional[BatchPolicy] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self._predict = predict_fn
        self.policy = policy if policy is not None else BatchPolicy.from_knobs()
        self.retry = retry if retry is not None else RetryPolicy.from_env()
        self._cond = threading.Condition()
        self._queue: Deque[_Request] = deque()
        self._closed = False
        self._dispatcher: Optional[threading.Thread] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    # -- request side ----------------------------------------------------

    def submit(self, values: np.ndarray) -> "Future[np.ndarray]":
        """Enqueue one validated ``(samples, in_dim)`` request.

        Raises :class:`QueueOverflow` immediately when the queue is at
        ``policy.queue_limit`` (overload shedding) and
        :class:`ServeError` after ``close()``.
        """
        arr = np.asarray(values)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise RequestError(f"submit takes a (samples, values) matrix, got {arr.shape}")
        with self._cond:
            if self._closed:
                raise ServeError("micro-batcher is closed")
            if len(self._queue) >= self.policy.queue_limit:
                obs_metrics.counter("serve_shed").inc()
                raise QueueOverflow(
                    f"request queue at its limit ({self.policy.queue_limit}); "
                    "request shed"
                )
            now = time.monotonic()
            request = _Request(
                values=arr,
                samples=int(arr.shape[0]),
                future=Future(),
                enqueued=now,
                deadline_at=(None if self.policy.deadline is None
                             else now + self.policy.deadline),
            )
            self._queue.append(request)
            obs_metrics.counter("serve_requests").inc()
            obs_metrics.gauge("serve_queue_depth").set(float(len(self._queue)))
            self._ensure_dispatcher_locked()
            self._cond.notify_all()
        return request.future

    # -- lifecycle -------------------------------------------------------

    def close(self, timeout: float = 10.0) -> None:
        """Drain the queue, stop the dispatcher and tear down the pool."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
            dispatcher = self._dispatcher
        if dispatcher is not None:
            dispatcher.join(timeout=timeout)
        with self._cond:
            while self._queue:  # dispatcher never started or died
                self._complete(self._queue.popleft(),
                               error=ServeError("micro-batcher closed"))
            obs_metrics.gauge("serve_queue_depth").set(0.0)
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- dispatcher ------------------------------------------------------

    def _ensure_dispatcher_locked(self) -> None:
        if self._dispatcher is None or not self._dispatcher.is_alive():
            self._dispatcher = threading.Thread(
                target=self._run, name="repro-serve-batcher", daemon=True
            )
            self._dispatcher.start()

    def _run(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            try:
                self._process(batch)
            except BaseException as exc:  # noqa: B036 - chaos guard: resubmit, never drop
                self._resubmit(batch, exc)

    def _collect(self) -> Optional[List[_Request]]:
        """Dequeue one batch: the first request + everything queued behind it.

        Work-conserving: it never waits for more requests once it has
        one.  Requests that arrive while a batch computes queue up, so
        fusion grows with load and costs a lone request nothing.
        Returns ``None`` once closed and drained.  A single request
        larger than ``max_batch`` still forms its own batch.
        """
        max_batch = self.policy.max_batch
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                self._cond.wait(0.1)
            batch = [self._queue.popleft()]
            total = batch[0].samples
            while self._queue and total + self._queue[0].samples <= max_batch:
                request = self._queue.popleft()
                batch.append(request)
                total += request.samples
            obs_metrics.gauge("serve_queue_depth").set(float(len(self._queue)))
        return batch

    def _process(self, batch: List[_Request]) -> None:
        now = time.monotonic()
        live: List[_Request] = []
        for request in batch:
            if request.deadline_at is not None and now > request.deadline_at:
                obs_metrics.counter("serve_deadline_misses").inc()
                self._complete(request, error=DeadlineExceeded(
                    f"request queued {now - request.enqueued:.3f}s, past its "
                    f"{self.policy.deadline}s deadline"
                ))
            else:
                live.append(request)
        if not live:
            return
        queue_wait = obs_metrics.histogram("serve_queue_wait_seconds")
        for request in live:
            queue_wait.observe(now - request.enqueued)
        values = np.concatenate([r.values for r in live], axis=0)
        obs_metrics.gauge("serve_batch_size").set(float(len(live)))
        obs_metrics.gauge("serve_batch_samples").set(float(values.shape[0]))
        obs_metrics.counter("serve_batches").inc()
        started = time.monotonic()
        outputs = self._evaluate(values)
        done = time.monotonic()
        obs_metrics.histogram("serve_compute_seconds").observe(done - started)
        latency = obs_metrics.histogram("serve_request_latency_seconds")
        offset = 0
        for request in live:
            self._complete(request, value=outputs[offset:offset + request.samples])
            offset += request.samples
            latency.observe(done - request.enqueued)
        obs_metrics.counter("serve_responses").inc(float(len(live)))

    def _resubmit(self, batch: List[_Request], cause: BaseException) -> None:
        """Crashed batch: requeue survivors (bounded by the retry budget)."""
        obs_metrics.counter("serve_worker_restarts").inc()
        _log.warning(
            "serve batch worker crashed; resubmitting its requests",
            extra={"fields": {"error": repr(cause), "requests": len(batch)}},
        )
        with self._cond:
            for request in reversed(batch):
                if request.future.done():
                    continue
                request.attempts += 1
                if request.attempts > self.retry.retries:
                    self._complete(request, error=ServeError(
                        f"batch worker crashed {request.attempts} times "
                        f"(last: {cause!r}); retry budget exhausted"
                    ))
                else:
                    self._queue.appendleft(request)
            obs_metrics.gauge("serve_queue_depth").set(float(len(self._queue)))
            self._cond.notify_all()

    # -- evaluation (stall-isolated, retried) ----------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                # Long-lived by design: one evaluation slot for the whole
                # server lifetime, torn down in close().
                self._pool = ThreadPoolExecutor(  # repro-lint: disable=RPR010
                    max_workers=1, thread_name_prefix="repro-serve-eval"
                )
            return self._pool

    def _abandon_pool(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def _evaluate(self, values: np.ndarray) -> np.ndarray:
        """Evaluate one fused batch, retrying failures and stalls.

        A stall (no result within ``retry.timeout``) abandons the
        evaluation pool — its late result, if any, is discarded — and
        resubmits the batch on a fresh pool, mirroring the pool rebuild
        of ``get_executor(...).map`` under a policy.
        """
        policy = self.retry
        last_error: Optional[BaseException] = None
        for attempt in range(policy.retries + 1):
            future = self._ensure_pool().submit(self._predict, values)
            try:
                return future.result(timeout=policy.timeout)
            except FutureTimeoutError:
                obs_metrics.counter("serve_worker_restarts").inc()
                self._abandon_pool()
                last_error = ServeError(
                    f"batch evaluation stalled beyond {policy.timeout}s; "
                    "pool rebuilt"
                )
                _log.warning(
                    "serve batch evaluation stalled; pool rebuilt",
                    extra={"fields": {"timeout": policy.timeout, "attempt": attempt}},
                )
            except Exception as exc:
                obs_metrics.counter("serve_retries").inc()
                last_error = exc
                _log.warning(
                    "serve batch evaluation failed; retrying",
                    extra={"fields": {"error": repr(exc), "attempt": attempt}},
                )
            if attempt < policy.retries:
                time.sleep(policy.sleep_for(attempt))
        assert last_error is not None
        raise ServeError(f"batch evaluation failed terminally: {last_error!r}") \
            from last_error

    # -- exactly-once completion -----------------------------------------

    @staticmethod
    def _complete(
        request: _Request,
        value: Optional[np.ndarray] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        future = request.future
        if future.done():  # exactly-once: never overwrite a delivered response
            return
        try:
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(value)
        except Exception:  # cancelled by the caller between check and set
            pass
