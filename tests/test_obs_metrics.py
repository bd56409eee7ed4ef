"""Tests for the metrics registry and its OpenMetrics exposition.

Covers the streaming bucket-histogram quantile sketch, registry thread
safety, cross-process histogram merge, the executor queue-depth gauge,
and the OpenMetrics renderer and validator.
"""

import threading

import numpy as np
import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import openmetrics as obs_openmetrics
from repro.parallel import get_executor


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Isolate the process-wide metrics state per test."""
    obs_metrics.clear()
    yield
    obs_metrics.clear()


class TestQuantileSketch:
    def test_bucket_quantiles_track_numpy(self):
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=-3.0, sigma=1.0, size=20_000)
        hist = obs_metrics.Histogram()
        hist.observe_many(samples)
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = float(np.quantile(samples, q))
            estimate = hist.quantile(q)
            # Bucket resolution is 1-2.5-5 per decade: the estimate
            # must land within the right bucket (~2.5x), and in
            # practice interpolation keeps it far tighter.
            assert estimate == pytest.approx(exact, rel=0.25)

    def test_quantiles_named_keys_and_bounds(self):
        hist = obs_metrics.Histogram()
        hist.observe_many([0.01] * 50 + [0.02] * 50)
        qs = hist.quantiles()
        assert set(qs) == {"p50", "p95", "p99"}
        assert 0.01 <= qs["p50"] <= qs["p95"] <= qs["p99"] <= 0.02

    def test_empty_histogram_quantile_is_nan(self):
        assert np.isnan(obs_metrics.Histogram().quantile(0.5))

    def test_summary_carries_buckets(self):
        hist = obs_metrics.Histogram()
        hist.observe(0.3)
        summary = hist.summary()
        assert sum(summary["buckets"]) == 1
        assert len(summary["buckets"]) == len(obs_metrics.BUCKET_BOUNDS)

    def test_sketchless_summary_falls_back_to_extrema(self):
        legacy = {"count": 10, "sum": 5.0, "min": 0.1, "max": 0.9}
        assert obs_metrics.quantile_from_summary(legacy, 0.5) == 0.1
        assert obs_metrics.quantile_from_summary(legacy, 0.99) == 0.9

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            obs_metrics.quantile_from_summary({"count": 1}, 1.5)


class TestRegistryThreadSafety:
    def test_concurrent_observe_and_inc_lose_nothing(self):
        registry = obs_metrics.MetricsRegistry()
        per_thread, threads = 2_000, 8
        barrier = threading.Barrier(threads)

        def hammer(thread_index: int) -> None:
            barrier.wait()
            counter = registry.counter("hits")
            hist = registry.histogram("lat")
            gauge = registry.gauge("depth")
            for i in range(per_thread):
                counter.inc()
                hist.observe(0.001 * ((thread_index + i) % 10 + 1))
                gauge.add(1)
                gauge.add(-1)

        workers = [
            threading.Thread(target=hammer, args=(t,)) for t in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        snap = registry.snapshot()
        total = per_thread * threads
        assert snap["counters"]["hits"] == total
        assert snap["histograms"]["lat"]["count"] == total
        assert sum(snap["histograms"]["lat"]["buckets"]) == total
        assert snap["gauges"]["depth"] == 0.0


def _latency_task(args):
    """Worker task observing synthetic latencies (module-level: picklable)."""
    index, values = args
    hist = obs_metrics.histogram("task_latency_seconds")
    for value in values:
        hist.observe(value)
    return index


class TestCrossProcessHistogramMerge:
    def test_worker_buckets_merge_home_exactly(self):
        """Mirror of the span-merge test for histogram sketches."""
        values = [[0.001 * (i + 1)] * 5 for i in range(4)]
        results = get_executor(2, kind="process").map(
            _latency_task, list(enumerate(values))
        )
        assert sorted(results) == [0, 1, 2, 3]
        summary = obs_metrics.snapshot()["histograms"]["task_latency_seconds"]
        assert summary["count"] == 20
        assert sum(summary["buckets"]) == 20
        assert summary["min"] == pytest.approx(0.001)
        assert summary["max"] == pytest.approx(0.004)
        # The merged sketch answers quantiles just like a serial run.
        assert 0.001 <= obs_metrics.quantile_from_summary(summary, 0.5) <= 0.004

    def test_serial_and_parallel_sketches_agree(self):
        values = [[0.01 * (i + 1)] for i in range(6)]
        get_executor(2, kind="process").map(_latency_task, list(enumerate(values)))
        parallel_summary = obs_metrics.snapshot()["histograms"][
            "task_latency_seconds"
        ]
        obs_metrics.clear()
        for task in enumerate(values):
            _latency_task(task)
        serial_summary = obs_metrics.snapshot()["histograms"][
            "task_latency_seconds"
        ]
        assert parallel_summary["buckets"] == serial_summary["buckets"]
        assert parallel_summary["count"] == serial_summary["count"]


class TestQueueDepthGauge:
    def test_depth_settles_to_zero_after_map(self):
        get_executor(2, kind="thread").map(_noop_task, list(range(6)))
        snap = obs_metrics.snapshot()
        assert snap["gauges"]["executor_queue_depth"] == 0.0
        assert snap["counters"]["executor_tasks"] == 6.0


def _noop_task(x):
    return x


class TestOpenMetricsRender:
    def test_render_validates_and_contains_families(self):
        obs_metrics.counter("executor_tasks").inc(5)
        obs_metrics.gauge("executor_queue_depth").set(3)
        hist = obs_metrics.histogram("forward_latency_seconds")
        hist.observe_many([0.002, 0.004, 0.03])
        text = obs_openmetrics.render()
        obs_openmetrics.validate(text)
        assert "repro_executor_tasks_total 5" in text
        assert "repro_executor_queue_depth 3" in text
        assert 'repro_forward_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_forward_latency_seconds_count 3" in text
        assert 'repro_forward_latency_seconds_quantiles{quantile="0.5"}' in text
        assert 'repro_forward_latency_seconds_quantiles{quantile="0.99"}' in text
        assert text.endswith("# EOF\n")

    def test_bucket_series_is_cumulative(self):
        hist = obs_metrics.histogram("lat")
        hist.observe_many([0.001, 0.001, 5000.0])
        text = obs_openmetrics.render()
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_lat_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 3

    def test_name_sanitization(self):
        assert obs_openmetrics.metric_name("a b-c.d") == "repro_a_b_c_d"

    def test_validator_rejects_missing_eof(self):
        with pytest.raises(ValueError, match="EOF"):
            obs_openmetrics.validate("# TYPE repro_x counter\nrepro_x_total 1\n")

    def test_validator_rejects_undeclared_family(self):
        with pytest.raises(ValueError, match="no TYPE"):
            obs_openmetrics.validate("repro_x_total 1\n# EOF\n")

    def test_validator_rejects_counter_without_total(self):
        bad = "# TYPE repro_x counter\nrepro_x 1\n# EOF\n"
        with pytest.raises(ValueError, match="_total"):
            obs_openmetrics.validate(bad)

    def test_validator_rejects_garbage_line(self):
        bad = "# TYPE repro_x gauge\nrepro_x one\n# EOF\n"
        with pytest.raises(ValueError, match="malformed"):
            obs_openmetrics.validate(bad)
