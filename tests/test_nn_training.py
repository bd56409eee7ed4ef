"""Unit tests for optimizers, trainer and dataset utilities."""

import numpy as np
import pytest

from repro.nn.datasets import UnitScaler, minibatches, resample, train_test_split
from repro.nn.losses import WeightedMSE
from repro.nn.network import MLP
from repro.nn.optimizers import SGD, Adam, Momentum, get_optimizer
from repro.nn.trainer import TrainConfig, Trainer


def _quadratic_data(rng, n=300):
    x = rng.uniform(0, 1, (n, 1))
    return x, 0.2 + 0.6 * x * x


class TestOptimizers:
    @pytest.mark.parametrize("name", ["sgd", "momentum", "adam"])
    def test_registry(self, name):
        assert get_optimizer(name) is not None

    def test_registry_rejects_unknown(self):
        with pytest.raises(ValueError):
            get_optimizer("lbfgs")

    def test_rejects_bad_learning_rate(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=0.0)

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError):
            Momentum(momentum=1.0)

    @pytest.mark.parametrize("opt_name", ["sgd", "momentum", "adam"])
    def test_reduces_loss(self, opt_name, rng):
        x, y = _quadratic_data(rng)
        net = MLP((1, 6, 1), rng=0)
        loss = WeightedMSE()
        opt = get_optimizer(opt_name, learning_rate=0.05)
        initial = loss.value(net.predict(x), y)
        for _ in range(100):
            pred = net.forward(x, train=True)
            net.backward(loss.gradient(pred, y))
            opt.step(net.layers)
        assert loss.value(net.predict(x), y) < initial * 0.5

    def test_adam_state_per_parameter(self, rng):
        net = MLP((2, 3, 1), rng=0)
        opt = Adam()
        x = rng.uniform(0, 1, (8, 2))
        y = rng.uniform(0, 1, (8, 1))
        loss = WeightedMSE()
        pred = net.forward(x, train=True)
        net.backward(loss.gradient(pred, y))
        opt.step(net.layers)
        # 2 layers x (weights + bias).
        assert len(opt._m) == 4


class TestTrainer:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(lr_decay=0.0)

    def test_fits_quadratic(self, rng):
        x, y = _quadratic_data(rng)
        net = MLP((1, 8, 1), rng=0)
        result = Trainer(config=TrainConfig(epochs=120, shuffle_seed=0)).fit(net, x, y)
        assert result.final_train_loss < 1e-3
        assert result.epochs_run == 120

    def test_loss_history_monotone_trend(self, rng):
        x, y = _quadratic_data(rng)
        net = MLP((1, 8, 1), rng=0)
        result = Trainer(config=TrainConfig(epochs=60, shuffle_seed=0)).fit(net, x, y)
        assert result.train_losses[-1] < result.train_losses[0]

    def test_early_stopping(self, rng):
        x, y = _quadratic_data(rng)
        net = MLP((1, 8, 1), rng=0)
        cfg = TrainConfig(epochs=500, patience=5, shuffle_seed=0)
        result = Trainer(config=cfg).fit(net, x, y, x_val=x[:50], y_val=y[:50])
        assert result.stopped_early
        assert result.epochs_run < 500

    def test_lr_decay_schedule(self, rng):
        x, y = _quadratic_data(rng, n=64)
        net = MLP((1, 4, 1), rng=0)
        cfg = TrainConfig(epochs=10, learning_rate=0.01, lr_decay=0.1, lr_decay_every=5,
                          shuffle_seed=0)
        trainer = Trainer(config=cfg)
        trainer.fit(net, x, y)  # smoke: schedule path executes

    def test_shape_validation(self, rng):
        net = MLP((2, 4, 1), rng=0)
        trainer = Trainer()
        with pytest.raises(ValueError):
            trainer.fit(net, np.zeros((10, 3)), np.zeros((10, 1)))
        with pytest.raises(ValueError):
            trainer.fit(net, np.zeros((10, 2)), np.zeros((10, 2)))
        with pytest.raises(ValueError):
            trainer.fit(net, np.zeros((10, 2)), np.zeros((9, 1)))

    @pytest.mark.parametrize("track_train_loss", [True, False])
    @pytest.mark.parametrize("log_every", [1, 4])
    def test_loss_bookkeeping_leaves_weights_bit_identical(self, track_train_loss,
                                                           log_every):
        # The tracked loss is an extra full forward pass; it must not
        # touch the weights or the shuffle stream.
        x, y = _quadratic_data(np.random.default_rng(3), n=64)

        def fit(**bookkeeping):
            net = MLP((1, 6, 1), rng=0)
            cfg = TrainConfig(epochs=9, batch_size=16, shuffle_seed=0, **bookkeeping)
            Trainer(config=cfg).fit(net, x, y)
            return net

        reference = fit(track_train_loss=False)
        net = fit(track_train_loss=track_train_loss, log_every=log_every)
        for got, want in zip(net.layers, reference.layers):
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.bias, want.bias)

    def test_sample_weights_focus_training(self, rng):
        # Two clusters; weighting one to ~zero should leave it unfit.
        x = np.concatenate([np.full((100, 1), 0.2), np.full((100, 1), 0.8)])
        y = np.concatenate([np.full((100, 1), 0.2), np.full((100, 1), 0.9)])
        weights = np.concatenate([np.full(100, 1.0), np.full(100, 1e-6)])
        net = MLP((1, 4, 1), rng=0)
        Trainer(config=TrainConfig(epochs=150, shuffle_seed=0)).fit(
            net, x, y, sample_weights=weights
        )
        err_heavy = abs(float(net.predict(np.array([[0.2]]))[0, 0]) - 0.2)
        err_light = abs(float(net.predict(np.array([[0.8]]))[0, 0]) - 0.9)
        assert err_heavy < err_light


class TestDatasets:
    def test_split_sizes(self, rng):
        x = rng.uniform(size=(100, 2))
        y = rng.uniform(size=(100, 1))
        xt, yt, xv, yv = train_test_split(x, y, test_fraction=0.2, rng=0)
        assert len(xv) == 20 and len(xt) == 80
        assert len(yt) == 80 and len(yv) == 20

    def test_split_validation(self, rng):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((5, 1)), np.zeros((4, 1)))
        with pytest.raises(ValueError):
            train_test_split(np.zeros((5, 1)), np.zeros((5, 1)), test_fraction=1.5)

    def test_split_partitions_data(self, rng):
        x = np.arange(50).reshape(-1, 1).astype(float)
        xt, _, xv, _ = train_test_split(x, x, test_fraction=0.3, rng=1)
        assert sorted(np.concatenate([xt, xv]).ravel().tolist()) == list(range(50))

    def test_scaler_roundtrip(self, rng):
        scaler = UnitScaler(low=np.array([-2.0, 0.0]), high=np.array([2.0, 10.0]), margin=0.1)
        values = rng.uniform(-2, 2, (20, 2)) * np.array([1.0, 2.5]) + np.array([0.0, 5.0])
        assert np.allclose(scaler.inverse(scaler.transform(values)), values)

    def test_scaler_margin(self):
        scaler = UnitScaler(low=np.zeros(1), high=np.ones(1), margin=0.05)
        assert np.isclose(scaler.transform(np.array([0.0]))[0], 0.05)
        assert np.isclose(scaler.transform(np.array([1.0]))[0], 0.95)

    def test_scaler_from_data_handles_constant_column(self):
        data = np.column_stack([np.ones(10), np.arange(10.0)])
        scaler = UnitScaler.from_data(data)
        out = scaler.transform(data)
        assert np.all(np.isfinite(out))

    def test_scaler_validation(self):
        with pytest.raises(ValueError):
            UnitScaler(low=np.array([1.0]), high=np.array([1.0]))
        with pytest.raises(ValueError):
            UnitScaler(low=np.zeros(1), high=np.ones(1), margin=0.5)

    def test_resample_prefers_heavy_samples(self, rng):
        x = np.arange(10).reshape(-1, 1).astype(float)
        p = np.zeros(10)
        p[3] = 1.0
        xs, _ = resample(x, x, p, size=50, rng=0)
        assert np.all(xs == 3.0)

    def test_resample_validation(self):
        x = np.zeros((4, 1))
        with pytest.raises(ValueError):
            resample(x, x, np.zeros(4))  # zero-sum distribution
        with pytest.raises(ValueError):
            resample(x, x, np.array([0.5, 0.5]))  # length mismatch
        with pytest.raises(ValueError):
            resample(x, x, np.array([1, -1, 0, 0.0]))  # negative weight

    def test_minibatches_cover_data(self, rng):
        x = np.arange(25).reshape(-1, 1).astype(float)
        seen = []
        for xb, yb, wb in minibatches(x, x, batch_size=4, rng=0):
            assert wb is None
            seen.extend(xb.ravel().tolist())
        assert sorted(seen) == list(range(25))

    def test_minibatches_carry_weights(self, rng):
        x = np.arange(8).reshape(-1, 1).astype(float)
        w = np.arange(8).astype(float)
        for xb, _, wb in minibatches(x, x, batch_size=3, rng=0, sample_weights=w):
            assert np.allclose(wb, xb.ravel())
