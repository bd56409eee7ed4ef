"""The ``REPRO_DTYPE`` knob: resolution, caching, data-path effect, and a
programmed chip keeping its dtype."""

import sys

import numpy as np
import pytest

from repro.config import dtype as cfg_dtype
from repro.core.mei import MEI, MEIConfig
from repro.device.variation import IDEAL, NonIdealFactors
from repro.nn import MLP, TrainConfig, Trainer
from repro.obs import metrics as obs_metrics
from repro.serve import load_artifact, save_artifact
from tests import reference_chain as oracle


@pytest.fixture(autouse=True)
def _reset_dtype(monkeypatch):
    """Every test starts from an unset knob and a cold cache."""
    monkeypatch.delenv("REPRO_DTYPE", raising=False)
    cfg_dtype.set_active_dtype(None)
    yield
    cfg_dtype.set_active_dtype(None)


class TestResolution:
    def test_default_is_float64(self):
        assert cfg_dtype.active_dtype() == np.float64
        assert cfg_dtype.astype([1, 2]).dtype == np.float64

    def test_knob_selects_float32(self, monkeypatch):
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        cfg_dtype.set_active_dtype(None)
        assert cfg_dtype.active_dtype() == np.float32
        assert cfg_dtype.astype([1.5]).dtype == np.float32

    def test_unknown_name_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_DTYPE", "float16")
        with pytest.raises(ValueError):
            cfg_dtype.resolve_dtype()

    def test_active_dtype_is_cached_until_reset(self, monkeypatch):
        assert cfg_dtype.active_dtype() == np.float64
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        # Still cached: the data path must not flip dtype mid-run.
        assert cfg_dtype.active_dtype() == np.float64
        cfg_dtype.set_active_dtype(None)
        assert cfg_dtype.active_dtype() == np.float32

    def test_explicit_set_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        cfg_dtype.set_active_dtype("float64")
        assert cfg_dtype.active_dtype() == np.float64

    def test_astype_passthrough_preserves_buffer(self):
        x = np.arange(4, dtype=np.float64)
        assert cfg_dtype.astype(x) is x


def _train(seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (64, 3))
    y = np.hstack([x.sum(axis=1, keepdims=True), x[:, :1] ** 2])
    model = MLP((3, 8, 2), rng=1)
    result = Trainer(config=TrainConfig(epochs=8, batch_size=16, shuffle_seed=2,
                                        track_train_loss=True)).fit(
        model, x, y
    )
    return model, result


class TestDataPath:
    def test_float32_threads_through_training(self):
        cfg_dtype.set_active_dtype("float32")
        model, _ = _train()
        for layer in model.layers:
            assert layer.weights.dtype == np.float32
            assert layer.bias.dtype == np.float32
        assert model.forward(np.zeros((2, 3))).dtype == np.float32

    def test_float32_tracks_float64_within_tolerance(self):
        cfg_dtype.set_active_dtype("float64")
        model64, res64 = _train()
        cfg_dtype.set_active_dtype("float32")
        model32, res32 = _train()
        pred64 = model64.forward(np.linspace(-1, 1, 12).reshape(4, 3))
        pred32 = model32.forward(np.linspace(-1, 1, 12).reshape(4, 3))
        # Documented contract: float32 is a memory/bandwidth trade at
        # ~1e-6 relative accuracy; a short training run stays well
        # within a loose bound.
        assert np.allclose(pred32, pred64, rtol=1e-3, atol=1e-4)
        assert res32.train_losses[-1] == pytest.approx(res64.train_losses[-1], rel=1e-3)


def _programmed_mei():
    """A small deployed MEI, trained just enough to have uneven weights."""
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(48, 2))
    y = 0.2 + 0.5 * x[:, :1] * x[:, 1:]
    return MEI(MEIConfig(2, 1, 6, bits=6), seed=4).train(
        x, y, TrainConfig(epochs=3, batch_size=16, shuffle_seed=0)
    ), x[:10]


NOISY = NonIdealFactors(sigma_pv=0.08, sigma_sf=0.05, seed=11)


class TestProgrammedChipHoldsItsDtype:
    """A chip's dtype is fixed when it is programmed, not re-read per call."""

    def test_switch_after_programming_changes_nothing(self):
        mei, probe = _programmed_mei()
        clean = mei.predict_trials(probe)
        noisy = mei.predict_trials(probe, NOISY, trials=3)
        coefficients = [array.coefficients() for array in mei.analog.arrays()]
        cfg_dtype.set_active_dtype("float32")
        assert mei.dtype == np.float64
        for array, before in zip(mei.analog.arrays(), coefficients):
            assert array.conductances.dtype == np.float64
            assert array.coefficients().dtype == np.float64
            assert np.array_equal(array.coefficients(), before)
        assert np.array_equal(mei.predict_trials(probe), clean)
        assert np.array_equal(mei.predict_trials(probe, NOISY, trials=3), noisy)

    @pytest.mark.parametrize("saved, loaded", [("float32", "float64"), ("float64", "float32")])
    def test_artifact_takes_the_loading_dtype(self, saved, loaded, tmp_path):
        cfg_dtype.set_active_dtype(saved)
        mei, probe = _programmed_mei()
        snapshot = mei.analog.conductance_snapshot()
        path = save_artifact(mei, tmp_path / "chip.npz")
        cfg_dtype.set_active_dtype(loaded)
        restored = load_artifact(path).system
        assert restored.dtype == np.dtype(loaded)
        for array, g in zip(restored.analog.arrays(), snapshot):
            assert array.conductances.dtype == np.dtype(loaded)
            assert np.array_equal(array.conductances, g.astype(loaded))
        # Eq. 2 from the saved states rounded to the loading dtype: the
        # coefficients an unconverted array got from a cast in coefficients().
        bits = oracle.mei_bits(restored, probe, IDEAL, 0)
        assert bits.dtype == np.dtype(loaded)
        assert np.array_equal(restored.predict_bits(probe), bits)

    def test_noise_free_predict_reads_no_dtype(self, monkeypatch):
        mei, probe = _programmed_mei()
        mei.predict(probe)  # memoize the coefficients
        calls = []
        original = cfg_dtype.active_dtype

        def counting():
            calls.append(1)
            return original()

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("repro") \
                    and getattr(module, "active_dtype", None) is original:
                monkeypatch.setattr(module, "active_dtype", counting)
        before = obs_metrics.snapshot()["counters"].get("crossbar_macs", 0.0)
        mei.predict(probe)
        after = obs_metrics.snapshot()["counters"].get("crossbar_macs", 0.0)
        assert calls == []
        cells = sum(array.conductances.size for array in mei.analog.arrays())
        assert mei.analog.device_count == cells
        assert after - before == cells * len(probe)
