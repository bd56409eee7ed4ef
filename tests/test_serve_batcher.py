"""Micro-batcher semantics: fusion, shedding, deadlines, invisibility.

The load-bearing property (satellite of the serving PR): **batching is
invisible** — a request decoded out of a fused batch equals the same
request served alone, for *any* interleaving of concurrent requests
and any ``max_batch`` policy.  Hypothesis drives that
over a bit-exact element-wise engine (row-wise arithmetic commutes
with concatenation exactly); a fixed-seed real-MEI test then pins the
same property on the actual encode → crossbar → comparator → decode
pipeline, where the comparator's 0.5 hardening makes the decoded
outputs batch-shape independent.

Chaos-path coverage (crashes, stalls, retry exhaustion) lives in
``tests/test_serve_chaos.py``.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import knobs
from repro.core.mei import MEI, MEIConfig
from repro.nn.trainer import TrainConfig
from repro.obs import metrics as obs_metrics
from repro.parallel.resilient import RetryPolicy
from repro.serve import (
    BatchPolicy,
    DeadlineExceeded,
    InferenceEngine,
    MicroBatcher,
    QueueOverflow,
    RequestError,
    ServeError,
)

FAST_RETRY = RetryPolicy(timeout=None, retries=2, backoff=0.0)


def _double(batch):
    """Row-wise element-wise reference engine: exact under concatenation."""
    return np.asarray(batch) * 2.0 + 0.25


def _req(rows, dim=3, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 1.0, (rows, dim))


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.002)


class _GatedEngine:
    """Blocks the first evaluation until released — lets a test park the
    dispatcher so follow-up requests provably queue (and then fuse)."""

    def __init__(self, fn=_double):
        self.fn = fn
        self.gate = threading.Event()
        self.calls = []

    def __call__(self, batch):
        self.calls.append(np.asarray(batch).shape)
        if len(self.calls) == 1:
            assert self.gate.wait(10)
        return self.fn(batch)


class TestBatching:
    def test_single_request_roundtrip(self):
        with MicroBatcher(_double, BatchPolicy(max_batch=8),
                          retry=FAST_RETRY) as batcher:
            values = _req(3)
            assert np.array_equal(batcher.submit(values).result(10), _double(values))

    def test_concurrent_requests_fuse_into_one_evaluation(self):
        """Requests submitted while a batch computes fuse into the next
        one under the default policy, with no batch hold to wait out."""
        engine = _GatedEngine()
        with MicroBatcher(engine, BatchPolicy(), retry=FAST_RETRY) as batcher:
            first = batcher.submit(_req(2, seed=1))
            _wait_for(lambda: len(engine.calls) == 1)
            second = batcher.submit(_req(3, seed=2))
            third = batcher.submit(_req(4, seed=3))
            engine.gate.set()
            second.result(10), third.result(10), first.result(10)
        assert engine.calls == [(2, 3), (7, 3)]  # 3+4 fused into one pass
        counters = obs_metrics.snapshot()["counters"]
        assert counters["serve_batches"] == 2.0
        assert counters["serve_requests"] == 3.0
        assert counters["serve_responses"] == 3.0

    def test_fused_responses_match_requests_served_alone(self):
        engine = _GatedEngine()
        requests = [_req(rows, seed=rows) for rows in (2, 1, 3)]
        with MicroBatcher(engine, BatchPolicy(max_batch=16),
                          retry=FAST_RETRY) as batcher:
            blocker = batcher.submit(_req(1, seed=9))
            _wait_for(lambda: len(engine.calls) == 1)
            futures = [batcher.submit(r) for r in requests]
            engine.gate.set()
            results = [f.result(10) for f in futures]
            blocker.result(10)
        for request, result in zip(requests, results):
            assert np.array_equal(result, _double(request))

    def test_oversize_request_forms_its_own_batch(self):
        with MicroBatcher(_double, BatchPolicy(max_batch=2),
                          retry=FAST_RETRY) as batcher:
            values = _req(5)
            assert np.array_equal(batcher.submit(values).result(10), _double(values))

    def test_small_requests_never_split_across_batches(self):
        """A request is a unit: a batch closes *before* a request that
        would overflow ``max_batch``, never mid-request."""
        engine = _GatedEngine()
        with MicroBatcher(engine, BatchPolicy(max_batch=4),
                          retry=FAST_RETRY) as batcher:
            blocker = batcher.submit(_req(1, seed=9))
            _wait_for(lambda: len(engine.calls) == 1)
            futures = [batcher.submit(_req(3, seed=s)) for s in (1, 2)]
            engine.gate.set()
            for future in futures:
                future.result(10)
            blocker.result(10)
        assert engine.calls == [(1, 3), (3, 3), (3, 3)]


class _SpyCondition:
    """A ``threading.Condition`` that logs every ``wait``: its timeout
    and whether the engine had been called yet."""

    def __init__(self, called):
        self._cond = threading.Condition()
        self._called = called
        self.waits = []

    def __enter__(self):
        return self._cond.__enter__()

    def __exit__(self, *exc_info):
        return self._cond.__exit__(*exc_info)

    def notify_all(self):
        self._cond.notify_all()

    def wait(self, timeout=None):
        self.waits.append((timeout, self._called.is_set()))
        return self._cond.wait(timeout)


class TestWorkConservingDispatch:
    """The dispatcher never holds a batch open: it takes what is queued
    the moment the evaluator is free (fusion under load is pinned by
    ``TestBatching.test_concurrent_requests_fuse_into_one_evaluation``)."""

    def test_lone_request_dispatched_without_a_timed_wait(self):
        called = threading.Event()

        def engine(batch):
            called.set()
            return _double(batch)

        with MicroBatcher(engine, BatchPolicy(), retry=FAST_RETRY) as batcher:
            spy = batcher._cond = _SpyCondition(called)
            values = _req(2)
            assert np.array_equal(batcher.submit(values).result(10), _double(values))
        assert [w for w in spy.waits if not w[1]] == []

    def test_stage_histograms_count_requests_and_batches(self):
        def count(name):
            return obs_metrics.histogram(name).count

        before = {name: count(name) for name in
                  ("serve_queue_wait_seconds", "serve_compute_seconds")}
        with MicroBatcher(_double, BatchPolicy(), retry=FAST_RETRY) as batcher:
            batcher.submit(_req(2)).result(10)
        for name, start in before.items():
            assert count(name) == start + 1, name


class TestOverloadAndDeadlines:
    def test_queue_overflow_sheds_loudly(self):
        engine = _GatedEngine()
        policy = BatchPolicy(max_batch=1, queue_limit=2)
        with MicroBatcher(engine, policy, retry=FAST_RETRY) as batcher:
            blocker = batcher.submit(_req(1, seed=0))
            _wait_for(lambda: len(engine.calls) == 1)
            queued = [batcher.submit(_req(1, seed=s)) for s in (1, 2)]
            with pytest.raises(QueueOverflow):
                batcher.submit(_req(1, seed=3))
            assert obs_metrics.snapshot()["counters"]["serve_shed"] == 1.0
            engine.gate.set()
            blocker.result(10)
            for future in queued:  # shed request gone, queued ones served
                assert future.result(10) is not None

    def test_expired_deadline_rejected_before_evaluation(self):
        engine = _GatedEngine()
        policy = BatchPolicy(max_batch=4, deadline=0.05)
        with MicroBatcher(engine, policy, retry=FAST_RETRY) as batcher:
            first = batcher.submit(_req(1, seed=0))
            _wait_for(lambda: len(engine.calls) == 1)
            late = batcher.submit(_req(1, seed=1))
            time.sleep(0.15)  # let the queued request's deadline lapse
            engine.gate.set()
            first.result(10)
            with pytest.raises(DeadlineExceeded):
                late.result(10)
        assert obs_metrics.snapshot()["counters"]["serve_deadline_misses"] == 1.0
        assert len(engine.calls) == 1  # the late request never reached the engine


class TestLifecycle:
    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(_double, BatchPolicy(), retry=FAST_RETRY)
        batcher.close()
        with pytest.raises(ServeError, match="closed"):
            batcher.submit(_req(1))

    def test_close_fails_undrained_requests(self):
        engine = _GatedEngine()
        batcher = MicroBatcher(engine, BatchPolicy(max_batch=1),
                               retry=FAST_RETRY)
        blocker = batcher.submit(_req(1, seed=0))
        _wait_for(lambda: len(engine.calls) == 1)
        stuck = batcher.submit(_req(1, seed=1))
        batcher.close(timeout=0.2)  # dispatcher is parked; queue must not leak
        with pytest.raises(ServeError):
            stuck.result(10)
        engine.gate.set()
        blocker.result(10)  # in-flight batch still completes exactly once

    def test_malformed_submit_rejected(self):
        with MicroBatcher(_double, BatchPolicy(), retry=FAST_RETRY) as batcher:
            with pytest.raises(RequestError):
                batcher.submit(np.zeros(3))  # 1-D: validate() upstream reshapes

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(queue_limit=0)
        with pytest.raises(ValueError):
            BatchPolicy(deadline=0.0)

    def test_policy_from_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_BATCH", "7")
        monkeypatch.setenv("REPRO_SERVE_QUEUE_LIMIT", "3")
        monkeypatch.setenv("REPRO_SERVE_DEADLINE_MS", "50")
        policy = BatchPolicy.from_knobs()
        assert policy.max_batch == 7
        assert policy.queue_limit == 3
        assert policy.deadline == pytest.approx(0.05)
        assert knobs.get_float("REPRO_SERVE_DEADLINE_MS") == 50.0

    def test_default_deadline_is_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_DEADLINE_MS", raising=False)
        assert BatchPolicy.from_knobs().deadline is None


class TestBatchingInvisibility:
    """The property suite: fused == alone, over arbitrary interleavings."""

    @settings(max_examples=25, deadline=None)
    @given(
        requests=st.lists(
            st.lists(
                st.lists(
                    st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False, width=64),
                    min_size=3, max_size=3,
                ),
                min_size=1, max_size=4,
            ),
            min_size=1, max_size=6,
        ),
        max_batch=st.sampled_from([1, 2, 7, 64]),
    )
    def test_any_interleaving_decodes_as_if_served_alone(self, requests, max_batch):
        arrays = [np.asarray(r, dtype=float) for r in requests]
        policy = BatchPolicy(max_batch=max_batch)
        with MicroBatcher(_double, policy, retry=FAST_RETRY) as batcher:
            futures = [batcher.submit(a) for a in arrays]
            results = [f.result(10) for f in futures]
        for array, result in zip(arrays, results):
            assert result.shape == array.shape
            assert np.array_equal(result, _double(array))

    def test_real_mei_batched_equals_alone(self):
        """Fixed-seed pin on the production engine: requests fused into
        one crossbar pass decode exactly as when served alone — the
        comparator hardens every bit against 0.5, so the decoded
        outputs carry no trace of the batch they rode in."""
        rng = np.random.default_rng(7)
        config = MEIConfig(in_groups=2, out_groups=1, hidden=6, bits=4)
        x = rng.uniform(0.0, 1.0, (32, config.in_groups))
        y = rng.uniform(0.0, 1.0, (32, config.out_groups))
        mei = MEI(config, seed=7).train(
            x, y, TrainConfig(epochs=3, batch_size=16, learning_rate=0.02,
                              shuffle_seed=7)
        )
        engine = InferenceEngine(mei)
        gated = _GatedEngine(fn=engine.predict)
        requests = [
            rng.uniform(0.0, 1.0, (rows, config.in_groups)) for rows in (2, 3, 1, 4)
        ]
        with MicroBatcher(gated, BatchPolicy(max_batch=32),
                          retry=FAST_RETRY) as batcher:
            blocker = batcher.submit(rng.uniform(0.0, 1.0, (1, config.in_groups)))
            _wait_for(lambda: len(gated.calls) == 1)
            futures = [batcher.submit(r) for r in requests]
            gated.gate.set()
            results = [f.result(30) for f in futures]
            blocker.result(30)
        assert gated.calls == [(1, 2), (10, 2)]  # all four fused into one pass
        for request, result in zip(requests, results):
            assert np.array_equal(result, engine.predict(request))
