"""Tests for the observability layer (``repro.obs``).

Covers JSONL log schema round-trips, metrics accounting (including
cross-process merge through process-pool maps), run manifests and the
CLI wiring.
"""

import json
import logging
import sys

import numpy as np
import pytest

from repro.__main__ import main
from repro.core.mei import MEI, MEIConfig
from repro.core.runner import ExperimentScale
from repro.core.saab import SAAB, SAABConfig
from repro.nn.network import MLP
from repro.nn.trainer import TrainConfig, Trainer
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import runinfo
from repro.parallel import get_executor

TINY = ExperimentScale(name="tiny", n_train=300, n_test=80, epochs=15, noise_trials=2)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Isolate the process-wide metrics state per test."""
    obs_metrics.clear()
    yield
    obs_metrics.clear()


def _tiny_data(n=40, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, 2))
    y = 0.3 + 0.4 * x[:, :1]
    return x, y


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
    """Module-level (picklable) task: produces a counter."""
    obs_metrics.counter("worker_widgets").inc(10)
    return item * 2


class TestCrossProcessMerge:
    def test_process_executor_ships_metrics_home(self):
        results = get_executor(2, kind="process").map(_worker_task, [1, 2, 3])
        assert results == [2, 4, 6]
        snap = obs_metrics.snapshot()
        assert snap["counters"]["worker_widgets"] == 30.0
        assert snap["counters"]["executor_tasks"] == 3.0
        assert snap["histograms"]["executor_task_seconds"]["count"] == 3
        assert snap["histograms"]["executor_queue_wait_seconds"]["count"] == 3
        assert 0.0 <= snap["gauges"]["executor_utilization"]

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
        assert set(manifest) == {
            "experiment", "created", "seed", "scale", "argv", "environment", "metrics",
        }

    def test_default_saab_manifest_is_strict_json(self, tmp_path):
        # An untracked fit has no final training loss; nothing may carry
        # it into the manifest as NaN, which RFC 8259 JSON cannot encode.
        x, y = _tiny_data()
        SAAB(lambda k: MEI(MEIConfig(2, 1, 4), seed=k), SAABConfig(n_learners=2)).train(x, y)
        path = runinfo.write_manifest("saab", run_dir=tmp_path)

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        manifest = json.loads(path.read_text(), parse_constant=reject)
        assert manifest["metrics"]["counters"]["train_runs"] == 2.0

    def test_manifest_filenames_never_collide(self, tmp_path):
        first = runinfo.write_manifest("exp", run_dir=tmp_path)
        second = runinfo.write_manifest("exp", run_dir=tmp_path)
        assert first != second
        assert first.exists() and second.exists()


class TestCLIObservability:
    def test_run_dir_writes_manifest(self, tmp_path, capsys):
        assert main(["fig2", "--run-dir", str(tmp_path)]) == 0
        manifests = list(tmp_path.glob("*-fig2.json"))
        assert len(manifests) == 1

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        manifest = json.loads(manifests[0].read_text(), parse_constant=reject)
        assert manifest["experiment"] == "fig2"
        assert "span_tree" not in manifest and "spans" not in manifest
        # The rendered table is still alone on stdout.
        out = capsys.readouterr().out
        assert "AD/DA total" in out

    def test_no_manifest_without_run_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["fig2"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "runs").exists()

    def test_trace_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["fig2", "--trace"])
        assert exited.value.code == 2
        assert "--trace" in capsys.readouterr().err
