"""Tests for L2 weight decay in the trainer."""

import numpy as np
import pytest

from repro.nn.network import MLP
from repro.nn.trainer import TrainConfig, Trainer


def _data(rng, n=300):
    x = rng.uniform(0, 1, (n, 2))
    y = 0.3 + 0.4 * x[:, :1]
    return x, y


class TestL2:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(l2=-0.1)

    def test_zero_l2_matches_plain(self, rng):
        x, y = _data(rng)
        a = MLP((2, 6, 1), rng=0)
        b = MLP((2, 6, 1), rng=0)
        Trainer(config=TrainConfig(epochs=15, batch_size=32, shuffle_seed=0)).fit(a, x, y)
        Trainer(config=TrainConfig(epochs=15, batch_size=32, shuffle_seed=0, l2=0.0)).fit(
            b, x, y
        )
        assert np.allclose(a.predict(x), b.predict(x))

    def test_decay_shrinks_weight_norm(self, rng):
        x, y = _data(rng)

        def weight_norm(l2):
            net = MLP((2, 12, 1), rng=0)
            cfg = TrainConfig(epochs=80, batch_size=32, shuffle_seed=0, l2=l2)
            Trainer(config=cfg).fit(net, x, y)
            return sum(float(np.sum(l.weights**2)) for l in net.layers)

        assert weight_norm(0.01) < weight_norm(0.0)

    def test_still_fits_with_mild_decay(self, rng):
        x, y = _data(rng)
        net = MLP((2, 8, 1), rng=0)
        cfg = TrainConfig(epochs=100, batch_size=32, shuffle_seed=0, l2=1e-4,
                          track_train_loss=True)
        result = Trainer(config=cfg).fit(net, x, y)
        assert result.final_train_loss < 1e-3

    def test_biases_not_decayed(self, rng):
        """Heavy decay crushes weights but biases can still move."""
        x, y = _data(rng)
        net = MLP((2, 4, 1), rng=0)
        cfg = TrainConfig(epochs=120, batch_size=64, shuffle_seed=0, l2=1.0)
        Trainer(config=cfg).fit(net, x, y)
        weight_scale = max(float(np.abs(l.weights).max()) for l in net.layers)
        bias_scale = max(float(np.abs(l.bias).max()) for l in net.layers)
        assert weight_scale < 0.2
        assert bias_scale > weight_scale
