"""Tests for the observability layer (``repro.obs``).

Covers span nesting/ordering, JSONL log schema round-trips, metrics
accounting (including cross-process merge through process-pool
maps), run manifests, the CLI wiring, and the
disabled-path overhead bound.
"""

import json
import logging
import sys
import time

import numpy as np
import pytest

from repro.__main__ import main
from repro.core.mei import MEI, MEIConfig
from repro.core.runner import ExperimentScale
from repro.core.saab import SAAB, SAABConfig
from repro.experiments.table1 import run_benchmark_row
from repro.nn.network import MLP
from repro.nn.trainer import TrainConfig, Trainer
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import runinfo
from repro.obs import trace as obs_trace
from repro.obs.trace import span
from repro.parallel import get_executor

TINY = ExperimentScale(name="tiny", n_train=300, n_test=80, epochs=15, noise_trials=2)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Isolate the process-wide trace/metrics state per test."""
    was_enabled = obs_trace.enabled()
    obs_trace.clear()
    obs_metrics.clear()
    yield
    obs_trace.enable(was_enabled)
    obs_trace.clear()
    obs_metrics.clear()


def _tiny_data(n=40, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, 2))
    y = 0.3 + 0.4 * x[:, :1]
    return x, y


class TestSpans:
    def test_disabled_by_default_returns_noop(self):
        assert not obs_trace.enabled()
        with span("anything", k=1) as sp:
            sp.set(more=2)
        assert obs_trace.get_records() == []

    def test_nesting_records_slash_paths(self):
        obs_trace.enable(True)
        with span("outer", a=1):
            with span("inner"):
                pass
            with span("inner"):
                pass
        paths = [r.path for r in obs_trace.get_records()]
        # Children close before the parent (completion order).
        assert paths == ["outer/inner", "outer/inner", "outer"]

    def test_attrs_and_error_capture(self):
        obs_trace.enable(True)
        with pytest.raises(ValueError):
            with span("work", stage="demo") as sp:
                sp.set(progress=0.5)
                raise ValueError("boom")
        (record,) = obs_trace.get_records()
        assert record.attrs["stage"] == "demo"
        assert record.attrs["progress"] == 0.5
        assert record.attrs["error"] == "ValueError"
        assert record.duration >= 0.0

    def test_span_tree_merges_siblings(self):
        obs_trace.enable(True)
        with span("sweep"):
            for _ in range(3):
                with span("round"):
                    pass
        tree = obs_trace.span_tree()
        sweep = tree["children"][0]
        assert sweep["name"] == "sweep"
        assert sweep["children"][0]["name"] == "round"
        assert sweep["children"][0]["count"] == 3
        rendered = obs_trace.render_tree()
        assert "round x3" in rendered

    def test_set_context_seeds_nesting(self):
        obs_trace.enable(True)
        obs_trace.set_context("parent/child")
        try:
            with span("leaf"):
                pass
        finally:
            obs_trace.set_context("")
        (record,) = obs_trace.get_records()
        assert record.path == "parent/child/leaf"

    def test_records_round_trip_to_dict(self):
        obs_trace.enable(True)
        with span("x", n=3):
            pass
        d = obs_trace.get_records()[0].to_dict()
        # JSON-safe and self-describing.
        parsed = json.loads(json.dumps(d))
        assert parsed["name"] == "x"
        assert parsed["attrs"] == {"n": 3}
        assert parsed["pid"] > 0


class TestRenderTree:
    """Output formatting of ``render_tree`` (sibling merge, totals)."""

    def _record(self, path, duration, seq):
        return obs_trace.SpanRecord(
            name=path.rsplit("/", 1)[-1],
            path=path,
            start=float(seq),
            duration=duration,
            seq=seq,
        )

    def test_empty_tree_renders_empty_string(self):
        assert obs_trace.render_tree(obs_trace.span_tree([])) == ""

    def test_sibling_merge_accumulates_count_and_seconds(self):
        records = [
            self._record("bench", 0.5, 0),
            self._record("bench/round", 1.0, 1),
            self._record("bench/round", 2.0, 2),
            self._record("bench/round", 3.0, 3),
        ]
        tree = obs_trace.span_tree(records)
        bench = tree["children"][0]
        merged = bench["children"][0]
        assert merged["count"] == 3
        assert merged["total_seconds"] == pytest.approx(6.0)
        rendered = obs_trace.render_tree(tree)
        lines = rendered.splitlines()
        assert lines[0] == "bench  0.500s"
        assert lines[1] == "  round x3  6.000s"

    def test_singletons_omit_count_suffix(self):
        records = [self._record("solo", 0.25, 0)]
        rendered = obs_trace.render_tree(obs_trace.span_tree(records))
        assert rendered == "solo  0.250s"
        assert "x1" not in rendered

    def test_nesting_indents_by_depth(self):
        records = [
            self._record("a", 0.1, 0),
            self._record("a/b", 0.1, 1),
            self._record("a/b/c", 0.1, 2),
        ]
        rendered = obs_trace.render_tree(obs_trace.span_tree(records))
        lines = rendered.splitlines()
        assert lines[0].startswith("a")
        assert lines[1].startswith("  b")
        assert lines[2].startswith("    c")

    def test_custom_indent_string(self):
        records = [self._record("a", 0.1, 0), self._record("a/b", 0.2, 1)]
        rendered = obs_trace.render_tree(obs_trace.span_tree(records), indent="....")
        assert "....b  0.200s" in rendered

    def test_seconds_rounded_to_three_decimals(self):
        records = [self._record("x", 1.23456789, 0)]
        assert obs_trace.render_tree(obs_trace.span_tree(records)) == "x  1.235s"


class TestLogging:
    def test_get_logger_names_under_repro(self):
        assert obs_log.get_logger("nn.trainer").name == "repro.nn.trainer"
        assert obs_log.get_logger("repro.cli").name == "repro.cli"

    def test_jsonl_sink_round_trips_fields(self, tmp_path):
        sink = tmp_path / "log.jsonl"
        obs_log.configure(level=logging.DEBUG, json_path=str(sink), force=True)
        try:
            log = obs_log.get_logger("test.jsonl")
            log.info("hello", extra={"fields": {"epoch": 3, "loss": 0.25}})
        finally:
            obs_log.configure(force=True)  # restore env-driven defaults
        lines = sink.read_text().strip().splitlines()
        payload = json.loads(lines[-1])
        assert payload["message"] == "hello"
        assert payload["level"] == "info"
        assert payload["logger"] == "repro.test.jsonl"
        assert payload["fields"] == {"epoch": 3, "loss": 0.25}
        assert isinstance(payload["ts"], float)
        assert payload["pid"] > 0

    def test_diagnostics_go_to_stderr_not_stdout(self, capsys):
        obs_log.configure(level=logging.INFO, stream=sys.stderr, force=True)
        try:
            obs_log.get_logger("test.stderr").info("to stderr")
        finally:
            obs_log.configure(force=True)
        captured = capsys.readouterr()
        assert "to stderr" in captured.err
        assert captured.out == ""


class TestMetrics:
    def test_counter_gauge_histogram(self):
        obs_metrics.counter("c").inc()
        obs_metrics.counter("c").inc(4)
        obs_metrics.gauge("g").set(0.5)
        obs_metrics.histogram("h").observe_many([1.0, 3.0])
        snap = obs_metrics.snapshot()
        assert snap["counters"]["c"] == 5.0
        assert snap["gauges"]["g"] == 0.5
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["mean"] == 2.0

    def test_counters_reject_negative(self):
        with pytest.raises(ValueError):
            obs_metrics.counter("c").inc(-1)

    def test_diff_and_merge_round_trip(self):
        obs_metrics.counter("c").inc(2)
        obs_metrics.histogram("h").observe(1.0)
        before = obs_metrics.snapshot()
        obs_metrics.counter("c").inc(3)
        obs_metrics.histogram("h").observe(5.0)
        delta = obs_metrics.diff(before, obs_metrics.snapshot())
        assert delta["counters"] == {"c": 3.0}
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["sum"] == 5.0
        registry = obs_metrics.MetricsRegistry()
        registry.merge(delta)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 3.0
        assert snap["histograms"]["h"]["count"] == 1


class TestForwardAccounting:
    def test_each_real_crossbar_pass_counts_once(self):
        from repro.core.mei import MEI, MEIConfig
        from repro.device.variation import IDEAL, NonIdealFactors

        mei = MEI(MEIConfig(2, 1, 5, bits=4), seed=0)
        mei.deploy()
        x = np.random.default_rng(0).uniform(size=(7, 2))
        noisy = NonIdealFactors(sigma_pv=0.1, seed=0)
        # Noise-free (the serving path) is one pass; each noisy trial is one.
        for noise, trials, passes in ((IDEAL, 1, 1), (noisy, 3, 3)):
            before = obs_metrics.snapshot()
            mei.predict_trials(x, noise, trials=trials)
            delta = obs_metrics.diff(before, obs_metrics.snapshot())
            assert delta["counters"]["crossbar_macs"] == mei.analog.device_count * 7 * passes
            assert delta["counters"]["forward_passes"] == 1
            assert delta["histograms"]["forward_latency_seconds"]["count"] == 1
            assert "forward_trials_latency_seconds" not in delta["histograms"]


def _worker_task(item):
    """Module-level (picklable) task: produces a span and a counter."""
    with span(f"task:{item}", item=item):
        obs_metrics.counter("worker_widgets").inc(10)
    return item * 2


class TestCrossProcessMerge:
    def test_process_executor_ships_spans_and_metrics_home(self):
        obs_trace.enable(True)
        results = get_executor(2, kind="process").map(_worker_task, [1, 2, 3])
        assert results == [2, 4, 6]
        records = obs_trace.get_records()
        paths = sorted(r.path for r in records)
        # Worker spans nest under the sweep's parallel_map span.
        assert "parallel_map/task:1" in paths
        assert "parallel_map/task:2" in paths
        assert "parallel_map/task:3" in paths
        assert "parallel_map" in paths
        snap = obs_metrics.snapshot()
        assert snap["counters"]["worker_widgets"] == 30.0
        assert snap["counters"]["executor_tasks"] == 3.0
        assert snap["histograms"]["executor_task_seconds"]["count"] == 3
        assert snap["histograms"]["executor_queue_wait_seconds"]["count"] == 3
        assert 0.0 <= snap["gauges"]["executor_utilization"]

    def test_executor_metrics_flow_without_tracing(self):
        assert not obs_trace.enabled()
        results = get_executor(2, kind="process").map(_worker_task, [4, 5])
        assert results == [8, 10]
        assert obs_trace.get_records() == []
        snap = obs_metrics.snapshot()
        assert snap["counters"]["worker_widgets"] == 20.0


class TestTrainerTiming:
    def test_epoch_seconds_and_total(self):
        x, y = _tiny_data()
        mlp = MLP((2, 4, 1), rng=0)
        result = Trainer(config=TrainConfig(epochs=5, batch_size=8)).fit(mlp, x, y)
        assert len(result.epoch_seconds) == 5
        assert all(s >= 0.0 for s in result.epoch_seconds)
        assert result.total_seconds == pytest.approx(sum(result.epoch_seconds))
        assert result.total_seconds > 0.0

    def test_early_stop_times_every_run_epoch(self):
        x, y = _tiny_data()
        x_val, y_val = _tiny_data(n=12, seed=1)
        mlp = MLP((2, 4, 1), rng=0)
        cfg = TrainConfig(epochs=50, batch_size=8, patience=2, min_delta=1e9)
        result = Trainer(config=cfg).fit(mlp, x, y, x_val=x_val, y_val=y_val)
        assert result.stopped_early
        assert len(result.epoch_seconds) == result.epochs_run

    def test_train_span_records_per_epoch_timings(self):
        obs_trace.enable(True)
        x, y = _tiny_data()
        Trainer(config=TrainConfig(epochs=3, batch_size=8)).fit(MLP((2, 4, 1), rng=0), x, y)
        train = [r for r in obs_trace.get_records() if r.name == "train"]
        assert len(train) == 1
        assert len(train[0].attrs["epoch_seconds"]) == 3
        assert train[0].attrs["epochs_run"] == 3
        assert "final_train_loss" not in train[0].attrs  # untracked by default

    def test_train_span_carries_a_tracked_final_loss(self):
        obs_trace.enable(True)
        x, y = _tiny_data()
        cfg = TrainConfig(epochs=3, batch_size=8, track_train_loss=True)
        result = Trainer(config=cfg).fit(MLP((2, 4, 1), rng=0), x, y)
        (train,) = [r for r in obs_trace.get_records() if r.name == "train"]
        assert train.attrs["final_train_loss"] == result.final_train_loss


class TestRunInfo:
    def test_environment_info_shape(self):
        info = runinfo.environment_info()
        assert info["hostname"]
        assert info["python"]
        assert isinstance(info["repro_env"], dict)
        # The repo checkout is a git repository.
        assert info["git_sha"] is None or len(info["git_sha"]) == 40

    def test_provenance_header_carries_extra(self):
        header = runinfo.provenance_header(workers=4)
        assert header["workers"] == 4
        assert "created" in header and "hostname" in header

    def test_write_manifest(self, tmp_path):
        obs_trace.enable(True)
        with span("demo"):
            obs_metrics.counter("demo_events").inc()
        path = runinfo.write_manifest(
            "demo-exp", run_dir=tmp_path, seed=7, scale=TINY, argv=["demo-exp"]
        )
        assert path.parent == tmp_path
        manifest = json.loads(path.read_text())
        assert manifest["experiment"] == "demo-exp"
        assert manifest["seed"] == 7
        assert manifest["scale"]["name"] == "tiny"
        assert manifest["metrics"]["counters"]["demo_events"] == 1.0
        assert manifest["span_tree"]["children"][0]["name"] == "demo"
        assert manifest["spans"][0]["name"] == "demo"

    def test_traced_default_saab_manifest_is_strict_json(self, tmp_path):
        # An untracked fit has no final training loss; the train span
        # must not carry it as NaN, which RFC 8259 JSON cannot encode.
        obs_trace.enable(True)
        x, y = _tiny_data()
        SAAB(lambda k: MEI(MEIConfig(2, 1, 4), seed=k), SAABConfig(n_learners=2)).train(x, y)
        path = runinfo.write_manifest("saab", run_dir=tmp_path)

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        manifest = json.loads(path.read_text(), parse_constant=reject)
        train = [s for s in manifest["spans"] if s["name"] == "train"]
        assert len(train) == 2
        assert all("final_train_loss" not in s["attrs"] for s in train)

    def test_manifest_filenames_never_collide(self, tmp_path):
        first = runinfo.write_manifest("exp", run_dir=tmp_path)
        second = runinfo.write_manifest("exp", run_dir=tmp_path)
        assert first != second
        assert first.exists() and second.exists()


class TestCLIObservability:
    def test_trace_flag_writes_manifest(self, tmp_path, capsys):
        assert main(["fig2", "--trace", "--run-dir", str(tmp_path)]) == 0
        manifests = list(tmp_path.glob("*-fig2.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        assert manifest["experiment"] == "fig2"
        names = [c["name"] for c in manifest["span_tree"]["children"]]
        assert "fig2" in names
        # The rendered table is still alone on stdout.
        out = capsys.readouterr().out
        assert "AD/DA total" in out
        json.loads(manifests[0].read_text())  # stays valid JSON

    def test_no_manifest_without_trace_or_run_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["fig2"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "runs").exists()


class TestDisabledOverhead:
    def test_noop_span_cost_is_negligible(self):
        """Disabled spans must cost well under 5% of one benchmark row.

        ``run_benchmark_row`` issues on the order of a couple hundred
        observability calls; we bound 2,000 no-op spans (~10x the
        row's actual call count) against 5% of the measured tiny-scale
        row time.
        """
        assert not obs_trace.enabled()
        t0 = time.perf_counter()
        run_benchmark_row("fft", TINY, seed=0)
        row_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        for _ in range(2_000):
            with span("noop", k=1):
                pass
        noop_seconds = time.perf_counter() - t0
        assert noop_seconds < 0.05 * row_seconds
