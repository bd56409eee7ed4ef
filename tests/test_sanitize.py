"""Tests for the runtime sanitizer (``repro.sanitize``).

Two obligations, mirroring the CI legs:

* a clean pipeline run under ``REPRO_SANITIZE=1`` produces **zero**
  findings (the guards must not cry wolf on healthy numerics);
* every guard demonstrably fires on an injected fault — NaN training
  data, out-of-window conductances, a mutated SHM segment, a generator
  shared across worker threads.
"""

import threading

import numpy as np
import pytest

import repro.sanitize as sanitize
from repro.core.deploy import AnalogMLP
from repro.device.variation import NonIdealFactors, pv_factor_stacks
from repro.nn.network import MLP
from repro.nn.trainer import TrainConfig, Trainer
from repro.obs import metrics as obs_metrics
from repro.parallel.seeding import ensure_rng
from repro.sanitize import guards, rng as sanitize_rng
from repro.xbar.mapping import clear_mapping_cache


@pytest.fixture(autouse=True)
def clean_sanitizer():
    """Arm the sanitizer for each test and restore knob-driven state after."""
    sanitize.reset()
    sanitize.set_enabled(True)
    yield
    sanitize.reset()


def kinds():
    return [f.kind for f in sanitize.findings()]


def stages():
    return [f.stage for f in sanitize.findings()]


class TestSwitch:
    def test_disabled_guards_are_silent(self):
        sanitize.set_enabled(False)
        assert guards.check_finite("t", "x", np.array([np.nan]))
        assert guards.check_range("t", "x", np.array([10.0]), 0.0, 1.0)
        assert sanitize_rng.note_rng(np.random.default_rng(0))
        assert sanitize.findings() == []

    def test_enabled_resolves_from_knob(self, monkeypatch):
        monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")
        sanitize.set_enabled(None)
        assert sanitize.enabled()
        monkeypatch.setenv(sanitize.SANITIZE_ENV, "0")
        sanitize.set_enabled(None)
        assert not sanitize.enabled()

    def test_record_increments_metric_and_caps_list(self):
        before = obs_metrics.snapshot()["counters"].get("sanitize_findings", 0.0)
        sanitize.record("t", "non-finite", "injected")
        after = obs_metrics.snapshot()["counters"]["sanitize_findings"]
        assert after == before + 1
        assert sanitize.findings()[-1].format() == "[t] non-finite: injected"


class TestGuards:
    def test_check_finite_clean_and_dirty(self):
        assert guards.check_finite("t", "x", np.ones(4))
        assert sanitize.findings() == []
        assert not guards.check_finite("t", "x", np.array([1.0, np.nan, np.inf]))
        (finding,) = sanitize.findings()
        assert finding.kind == "non-finite"
        assert "2/3" in finding.detail

    def test_check_finite_ignores_non_numeric(self):
        assert guards.check_finite("t", "x", np.array(["a", "b"]))
        assert sanitize.findings() == []

    def test_check_range_flags_excursions_with_edge_slack(self):
        window = np.array([1e-6, 1e-4])
        assert guards.check_range("t", "g", window * (1 + 1e-12), 1e-6, 1e-4)
        assert not guards.check_range("t", "g", np.array([2e-4]), 1e-6, 1e-4)
        (finding,) = sanitize.findings()
        assert finding.kind == "range"

    def test_watch_verify_buffer_detects_mutation(self):
        data = np.arange(8.0)
        guards.watch_buffer("t", "buf", data)
        assert guards.verify_buffer("t", "buf", data)
        data[3] = -1.0
        assert not guards.verify_buffer("t", "buf", data)
        assert kinds() == ["shm-mutated"]

    def test_verify_unwatched_buffer_is_silent(self):
        assert guards.verify_buffer("t", "never-watched", np.ones(2))
        assert sanitize.findings() == []


class TestRngRaceDetector:
    def test_two_worker_threads_sharing_one_generator_fire(self):
        shared = np.random.default_rng(0)

        def use():
            ensure_rng(shared, "test")

        for t in [threading.Thread(target=use), threading.Thread(target=use)]:
            t.start()
            t.join()
        assert kinds() == ["rng-shared"]
        # reported once per generator, not once per use
        threading.Thread(target=use).start()
        assert kinds() == ["rng-shared"]

    def test_main_to_worker_handoff_is_allowed(self):
        shared = np.random.default_rng(0)
        ensure_rng(shared, "main-side")
        worker = threading.Thread(target=lambda: ensure_rng(shared, "worker-side"))
        worker.start()
        worker.join()
        assert sanitize.findings() == []

    def test_scan_items_flags_generator_in_two_payloads(self):
        shared = np.random.default_rng(0)
        items = [(0, shared), (1, shared), (2, np.random.default_rng(1))]
        assert not sanitize_rng.scan_items("thread-executor", items)
        (finding,) = sanitize.findings()
        assert finding.kind == "rng-shared"
        assert "2 of 3" in finding.detail

    def test_scan_items_accepts_disjoint_generators(self):
        items = [np.random.default_rng(s) for s in range(3)]
        assert sanitize_rng.scan_items("thread-executor", items)
        assert sanitize.findings() == []


class TestInjectedFaults:
    def test_nan_training_data_trips_the_trainer_guard(self):
        x = np.full((16, 3), np.nan)
        y = np.zeros((16, 1))
        Trainer(config=TrainConfig(epochs=1, batch_size=8, shuffle_seed=0)).fit(
            MLP((3, 4, 1), rng=0), x, y
        )
        assert "trainer" in stages()
        assert "non-finite" in kinds()

    @pytest.mark.parametrize("path", ["apply", "apply_trials", "forward_trials"])
    def test_out_of_window_conductances_trip_the_crossbar_guard(self, path):
        clear_mapping_cache()
        analog = AnalogMLP(MLP((3, 2), rng=0))
        pair = analog.crossbars[0]
        # discretize() clipped at construction; simulate post-program
        # drift (what a fault campaign or a bug would produce)
        pair.positive.conductances[0, 0] = pair.device.g_max * 10
        noise = NonIdealFactors(sigma_pv=0.05, seed=1)
        if path == "apply":
            pair.apply(np.ones(3))
        elif path == "apply_trials":
            (factors,) = pv_factor_stacks([pair], noise.sigma_pv, noise.rngs(2))
            pair.apply_trials(np.ones((2, 4, 3)), factors)
        else:
            analog.forward_trials(np.ones((4, 3)), noise, trials=2)
        assert "crossbar" in stages()
        assert "range" in kinds()

    def test_shm_segment_mutation_is_detected_at_close(self):
        shm = pytest.importorskip("repro.parallel.shm")
        session = shm.ShmSession()
        ref = session.share(np.arange(16384.0))
        view = np.ndarray(
            ref.shape, dtype=np.dtype(ref.dtype), buffer=session._segments[0].buf
        )
        view[0] = -1.0
        session.close()
        assert kinds() == ["shm-mutated"]
        assert stages() == ["shm"]


class TestCleanPipeline:
    def test_quick_deploy_and_forward_is_finding_free(self, rng):
        clear_mapping_cache()
        net = MLP((4, 6, 2), rng=0)
        x = rng.uniform(0, 1, (32, 4))
        y = rng.uniform(0, 1, (32, 2))
        Trainer(config=TrainConfig(epochs=3, batch_size=8, shuffle_seed=0)).fit(
            net, x, y
        )
        deployed = AnalogMLP(net)
        out = deployed.forward(x)
        assert np.all(np.isfinite(out))
        assert sanitize.findings() == [], [f.format() for f in sanitize.findings()]
