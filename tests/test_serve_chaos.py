"""Chaos tests for the serve path (the PR-5 fault-injection patterns).

Three injected failure modes against :class:`repro.serve.MicroBatcher`:

* a **flaky** engine (fails, then recovers) — failed batches retry
  with backoff and every response is still delivered exactly once;
* a **stalled** engine (hangs past ``RetryPolicy.timeout``) — the
  isolated evaluation pool is abandoned and rebuilt, the batch is
  re-evaluated on the fresh pool, and the late straggler result is
  discarded rather than double-completing a future;
* a **killed** worker (``SystemExit`` escaping the evaluation — the
  in-process analogue of a dead worker process) — the dispatcher's
  crash guard resubmits the in-flight requests without dropping or
  duplicating any response, bounded by the retry budget, and the
  batcher keeps serving afterwards.

The corrupted-artifact chaos case (digest mismatch refused loudly)
lives with the other storage semantics in
``tests/test_serve_artifact.py::TestIntegrity``.
"""

import threading
import time

import numpy as np
import pytest

from repro.obs import metrics as obs_metrics
from repro.parallel.resilient import RetryPolicy
from repro.serve import BatchPolicy, MicroBatcher, ServeError


def _reference(batch):
    return np.asarray(batch) * 2.0 + 0.25


class _ChaosEngine:
    """Injects a scripted failure on the first ``failures`` calls."""

    def __init__(self, failures, make_error, delay=0.0):
        self.failures = failures
        self.make_error = make_error
        self.delay = delay
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, batch):
        with self._lock:
            self.calls += 1
            call = self.calls
        if call <= self.failures:
            if self.delay:
                time.sleep(self.delay)
            if self.make_error is not None:
                raise self.make_error()
        return _reference(batch)


def _requests(count=3, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.0, 1.0, (rows, dim)) for rows in range(1, count + 1)]


class TestFlakyEngine:
    def test_failed_batches_retry_and_deliver_exactly_once(self):
        engine = _ChaosEngine(failures=2, make_error=lambda: RuntimeError("injected"))
        retry = RetryPolicy(timeout=None, retries=3, backoff=0.0)
        requests = _requests()
        with MicroBatcher(engine, BatchPolicy(max_batch=64),
                          retry=retry) as batcher:
            futures = [batcher.submit(r) for r in requests]
            results = [f.result(30) for f in futures]
        for request, result in zip(requests, results):
            assert np.array_equal(result, _reference(request))
        counters = obs_metrics.snapshot()["counters"]
        assert counters["serve_retries"] >= 2.0
        # exactly once: one response per request, none dropped or repeated
        assert counters["serve_responses"] == float(len(requests))

    def test_retry_budget_exhaustion_fails_loudly_then_recovers(self):
        engine = _ChaosEngine(failures=10 ** 6,
                              make_error=lambda: RuntimeError("injected"))
        retry = RetryPolicy(timeout=None, retries=1, backoff=0.0)
        with MicroBatcher(engine, BatchPolicy(max_batch=4),
                          retry=retry) as batcher:
            doomed = batcher.submit(_requests(count=1)[0])
            with pytest.raises(ServeError):
                doomed.result(30)
            engine.failures = 0  # the engine heals; the batcher must too
            healed = _requests(count=1, seed=5)[0]
            assert np.array_equal(batcher.submit(healed).result(30),
                                  _reference(healed))


class TestStalledWorker:
    def test_stall_rebuilds_pool_and_reevaluates(self):
        engine = _ChaosEngine(failures=1, make_error=None, delay=0.8)
        retry = RetryPolicy(timeout=0.1, retries=2, backoff=0.0)
        request = _requests(count=1, seed=2)[0]
        with MicroBatcher(engine, BatchPolicy(max_batch=4),
                          retry=retry) as batcher:
            begin = time.monotonic()
            result = batcher.submit(request).result(30)
            elapsed = time.monotonic() - begin
        assert np.array_equal(result, _reference(request))
        assert elapsed < 0.8  # served by the rebuilt pool, not the straggler
        counters = obs_metrics.snapshot()["counters"]
        assert counters["serve_worker_restarts"] >= 1.0
        assert counters["serve_responses"] == 1.0


class TestKilledWorker:
    def test_systemexit_resubmits_without_drop_or_duplicate(self):
        engine = _ChaosEngine(failures=1, make_error=lambda: SystemExit("killed"))
        retry = RetryPolicy(timeout=None, retries=2, backoff=0.0)
        requests = _requests(count=3, seed=3)
        with MicroBatcher(engine, BatchPolicy(max_batch=64),
                          retry=retry) as batcher:
            futures = [batcher.submit(r) for r in requests]
            results = [f.result(30) for f in futures]
        for request, result in zip(requests, results):
            assert np.array_equal(result, _reference(request))
        counters = obs_metrics.snapshot()["counters"]
        assert counters["serve_worker_restarts"] >= 1.0
        assert counters["serve_responses"] == float(len(requests))
        assert counters["serve_requests"] == float(len(requests))

    def test_repeated_kills_exhaust_budget_with_serve_error(self):
        engine = _ChaosEngine(failures=10 ** 6, make_error=lambda: SystemExit("killed"))
        retry = RetryPolicy(timeout=None, retries=1, backoff=0.0)
        request = _requests(count=1, seed=4)[0]
        with MicroBatcher(engine, BatchPolicy(max_batch=4),
                          retry=retry) as batcher:
            future = batcher.submit(request)
            with pytest.raises(ServeError, match="retry budget"):
                future.result(30)
