"""The ``REPRO_DTYPE`` knob: resolution, caching, and data-path effect."""

import numpy as np
import pytest

from repro.config import dtype as cfg_dtype
from repro.nn import MLP, TrainConfig, Trainer


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
