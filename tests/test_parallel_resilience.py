"""Chaos tests for ``get_executor(...).map`` under a retry policy.

Workers here genuinely misbehave — raise, hang, SIGKILL their own
process — and the assertions check the campaign-grade semantics:
bounded retry with backoff, stall-timeout pool rebuilds (with the hung
worker terminated), crashed-worker resubmission, and graceful
degradation to serial execution (logged and recorded in a span).
"""

import os
import signal
import time

import numpy as np
import pytest

import repro.sanitize as sanitize
from repro.parallel import (
    TASK_RETRIES_ENV,
    TASK_TIMEOUT_ENV,
    ResilienceReport,
    RetryPolicy,
    TaskError,
    get_executor,
)
from repro.obs import metrics as obs_metrics
from repro.parallel.executor import MAX_BACKOFF

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _square(v):
    return v * v


def resilient_run(fn, items, workers, kind=None, policy=None):
    """One policy-driven map: ``(results, report)``."""
    report = ResilienceReport()
    results = get_executor(workers, kind).map(
        fn, items,
        policy=policy if policy is not None else RetryPolicy.from_env(),
        report=report,
    )
    return results, report


def _pid_alive(pid):
    """True while ``pid`` exists and is not a reaped-pending zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _kill_self_once(args):
    """SIGKILL this worker the first time; succeed on resubmission."""
    value, marker, parent_pid = args
    if not os.path.exists(marker) and os.getpid() != parent_pid:
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def _hang_once(args):
    """Sleep far past the stall timeout the first time only."""
    value, marker = args
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write(str(os.getpid()))
        time.sleep(60)
    return value * value


def _raise_once(args):
    """Raise the first time; succeed on retry."""
    value, marker = args
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write(str(os.getpid()))
        raise RuntimeError("injected failure")
    return value * value


def _fail_in_workers(args):
    """Fail in any worker process; succeed only in the parent."""
    value, parent_pid = args
    if os.getpid() != parent_pid:
        raise RuntimeError("only the parent may run me")
    return value * value


def _first(pair):
    return pair[0]


def _always_raise(value):
    raise ValueError(f"task {value} is doomed")


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.timeout is None
        assert policy.retries == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-0.1)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "12.5")
        monkeypatch.setenv(TASK_RETRIES_ENV, "5")
        policy = RetryPolicy.from_env()
        assert policy.timeout == 12.5
        assert policy.retries == 5

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "12.5")
        monkeypatch.setenv(TASK_RETRIES_ENV, "5")
        policy = RetryPolicy.from_env(timeout=1.0, retries=1)
        assert policy.timeout == 1.0
        assert policy.retries == 1

    def test_env_unset_uses_defaults(self, monkeypatch):
        monkeypatch.delenv(TASK_TIMEOUT_ENV, raising=False)
        monkeypatch.delenv(TASK_RETRIES_ENV, raising=False)
        policy = RetryPolicy.from_env()
        assert policy.timeout is None
        assert policy.retries == 2

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(backoff=0.5)
        assert policy.sleep_for(0) == pytest.approx(0.5)
        assert policy.sleep_for(1) == pytest.approx(1.0)
        assert policy.sleep_for(2) == pytest.approx(MAX_BACKOFF)
        assert policy.sleep_for(3) == pytest.approx(MAX_BACKOFF)
        assert RetryPolicy(backoff=0.0).sleep_for(5) == 0.0


class TestSerialResilience:
    def test_happy_path_keeps_order(self):
        results, report = resilient_run(_square, [3, 1, 4, 1, 5], workers=1)
        assert results == [9, 1, 16, 1, 25]
        assert report.tasks == 5
        assert not report.degraded

    def test_retry_in_parent(self):
        state = {"calls": 0}

        def flaky(v):
            state["calls"] += 1
            if state["calls"] == 1:
                raise RuntimeError("first call fails")
            return v + 1

        results, report = resilient_run(
            flaky, [41], workers=1, policy=RetryPolicy(retries=2, backoff=0)
        )
        assert results == [42]
        assert report.retries == 1

    def test_exhaustion_raises_task_error_with_cause(self):
        with pytest.raises(TaskError) as excinfo:
            resilient_run(
                _always_raise, [7], workers=1,
                policy=RetryPolicy(retries=1, backoff=0),
            )
        assert excinfo.value.index == 0
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_zero_retries(self):
        with pytest.raises(TaskError):
            resilient_run(
                _always_raise, [1], workers=1,
                policy=RetryPolicy(retries=0, backoff=0),
            )


class TestChaosProcessPool:
    def test_crashed_worker_is_resubmitted(self, tmp_path):
        marker = tmp_path / "crash-marker"
        items = [(v, str(marker), os.getpid()) for v in range(6)]
        results, report = resilient_run(
            _kill_self_once, items, workers=2, kind="process",
            policy=RetryPolicy(retries=2, backoff=0.01),
        )
        assert results == [v * v for v in range(6)]
        assert report.crashes >= 1
        assert report.pool_rebuilds >= 1
        assert marker.exists()
        assert any("crashed" in event for event in report.events)

    def test_stall_timeout_fires_and_recovers(self, tmp_path):
        marker = tmp_path / "hang-marker"
        items = [(v, str(marker)) for v in range(4)]
        start = time.monotonic()
        results, report = resilient_run(
            _hang_once, items, workers=2, kind="process",
            policy=RetryPolicy(timeout=1.0, retries=2, backoff=0.01),
        )
        elapsed = time.monotonic() - start
        assert results == [v * v for v in range(4)]
        assert report.timeouts >= 1
        assert elapsed < 30  # rebuilt, not waiting out the 60s sleep
        assert any("rebuilding pool" in event for event in report.events)
        # The hung worker is terminated with its pool, not left sleeping
        # (which would hold the interpreter at exit for the full 60 s).
        hung_pid = int(marker.read_text(encoding="utf-8"))
        deadline = time.monotonic() + 5.0
        while _pid_alive(hung_pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _pid_alive(hung_pid)

    def test_worker_exception_is_retried(self, tmp_path):
        marker = tmp_path / "raise-marker"
        items = [(v, str(marker)) for v in range(5)]
        results, report = resilient_run(
            _raise_once, items, workers=2, kind="process",
            policy=RetryPolicy(retries=2, backoff=0.01),
        )
        assert results == [v * v for v in range(5)]
        assert report.retries >= 1

    def test_thread_pool_retry(self, tmp_path):
        marker = tmp_path / "thread-marker"
        items = [(v, str(marker)) for v in range(4)]
        results, report = resilient_run(
            _raise_once, items, workers=2, kind="thread",
            policy=RetryPolicy(retries=2, backoff=0.01),
        )
        assert results == [v * v for v in range(4)]
        assert report.retries >= 1


class TestSerialDegradation:
    def test_exhausted_tasks_degrade_to_serial(self):
        # Fails in every worker, succeeds in the parent: the pool burns
        # the retry budget, then the serial fallback completes the map.
        items = [(v, os.getpid()) for v in range(3)]
        before = obs_metrics.snapshot()
        results, report = resilient_run(
            _fail_in_workers, items, workers=2, kind="process",
            policy=RetryPolicy(retries=1, backoff=0.01),
        )
        delta = obs_metrics.diff(before, obs_metrics.snapshot())
        assert results == [0, 1, 4]
        assert report.degraded
        assert report.serial_fallback_tasks == 3
        assert delta["counters"]["resilient_serial_fallback"] == 3.0
        assert delta["counters"]["resilient_degraded_maps"] == 1.0
        assert any("degrading" in event for event in report.events)

    def test_unpicklable_work_degrades_upfront(self):
        offset = 5
        with pytest.warns(RuntimeWarning, match="not picklable"):
            results, report = resilient_run(
                lambda v: v + offset, [1, 2, 3], workers=2, kind="process"
            )
        assert results == [6, 7, 8]
        assert report.degraded
        assert any("not picklable" in event for event in report.events)

    def test_thread_map_scans_payloads_for_shared_generators(self):
        # Resilient thread maps run the same submission-time scan as
        # plain ones: one Generator in two payloads is a finding.
        shared = np.random.default_rng(0)
        sanitize.reset()
        sanitize.set_enabled(True)
        try:
            results, _ = resilient_run(
                _first, [(1, shared), (2, shared)], workers=2, kind="thread",
                policy=RetryPolicy(retries=0, backoff=0),
            )
            kinds = [finding.kind for finding in sanitize.findings()]
        finally:
            sanitize.reset()
        assert results == [1, 2]
        assert "rng-shared" in kinds

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown executor kind"):
            resilient_run(_square, [1, 2], workers=2, kind="gpu")


class TestReportShape:
    def test_to_dict_roundtrips_json_safe(self):
        report = ResilienceReport(tasks=3)
        report.record("something happened")
        payload = report.to_dict()
        assert payload["tasks"] == 3
        assert payload["events"] == ["something happened"]
        assert set(payload) == {
            "tasks", "retries", "timeouts", "crashes", "pool_rebuilds",
            "serial_fallback_tasks", "degraded", "events",
        }

    def test_results_iterate_in_order(self):
        results, _ = resilient_run(_square, [2, 3], workers=1)
        assert list(results) == [4, 9]

    def test_bit_identity_serial_vs_pooled(self):
        """Resilience must not change results, only where tasks run."""
        values = list(np.linspace(0.0, 1.0, 8))
        serial, _ = resilient_run(_square, values, workers=1)
        pooled, _ = resilient_run(_square, values, workers=2, kind="process")
        assert serial == pooled
