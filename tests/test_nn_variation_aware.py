"""Tests for variation-aware (noise-injection) training."""

import numpy as np
import pytest

from repro.core.mei import MEI, MEIConfig
from repro.device.variation import NonIdealFactors
from repro.nn.network import MLP
from repro.nn.trainer import TrainConfig, Trainer


class TestWeightNoiseConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(weight_noise_sigma=-0.1)

    def test_zero_sigma_matches_plain_training(self, rng):
        x = rng.uniform(0, 1, (200, 2))
        y = 0.3 + 0.4 * x[:, :1]
        cfg = TrainConfig(epochs=20, batch_size=32, shuffle_seed=0)
        cfg_noisy = TrainConfig(epochs=20, batch_size=32, shuffle_seed=0,
                                weight_noise_sigma=0.0)
        a = MLP((2, 4, 1), rng=0)
        b = MLP((2, 4, 1), rng=0)
        Trainer(config=cfg).fit(a, x, y)
        Trainer(config=cfg_noisy).fit(b, x, y)
        assert np.allclose(a.predict(x), b.predict(x))


class TestVariationAwareTraining:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, (800, 2))
        y = 0.2 + 0.5 * (0.6 * x[:, :1] + 0.4 * x[:, 1:] ** 2)
        return x, y

    def test_still_converges(self, data):
        x, y = data
        net = MLP((2, 8, 1), rng=0)
        cfg = TrainConfig(epochs=100, batch_size=32, shuffle_seed=0,
                          weight_noise_sigma=0.05, track_train_loss=True)
        result = Trainer(config=cfg).fit(net, x, y)
        assert result.final_train_loss < 0.01

    def test_weights_not_left_perturbed(self, data):
        """After fit() the stored weights are the clean (updated) ones:
        two identical runs must produce identical weights."""
        x, y = data
        cfg = TrainConfig(epochs=5, batch_size=64, shuffle_seed=0,
                          weight_noise_sigma=0.2)
        a = MLP((2, 4, 1), rng=0)
        b = MLP((2, 4, 1), rng=0)
        Trainer(config=cfg).fit(a, x, y)
        Trainer(config=cfg).fit(b, x, y)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_improves_pv_robustness_of_deployed_mei(self, data):
        """The point of the feature: smaller accuracy loss under PV."""
        x, y = data
        noise = NonIdealFactors(sigma_pv=0.25, seed=7)

        def degradation(weight_noise):
            cfg = TrainConfig(epochs=120, batch_size=32, shuffle_seed=0,
                              weight_noise_sigma=weight_noise)
            mei = MEI(MEIConfig(2, 1, 16), seed=0).train(x, y, cfg)
            clean = np.mean(np.abs(mei.predict(x) - y))
            noisy = np.mean([
                np.mean(np.abs(mei.predict(x, noise, t) - y)) for t in range(5)
            ])
            return clean, noisy - clean

        clean_plain, deg_plain = degradation(0.0)
        clean_vat, deg_vat = degradation(0.15)
        # Variation-aware training may cost a little clean accuracy but
        # must not degrade more under PV than plain training.
        assert deg_vat <= deg_plain + 0.005
        assert clean_vat < 0.1
