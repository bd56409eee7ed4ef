"""``Trainer.fit`` against the per-parameter reference training loop.

Bit for bit, at float64 and float32: trained weights and biases, the
train and validation loss histories, ``epochs_run`` and
``stopped_early``, over every optimizer, activation and training option
(sample and port weights, L2, weight-noise injection, early stopping,
learning-rate decay, loss bookkeeping) on 2- and 3-layer nets.
"""

import numpy as np
import pytest

from repro.config import dtype as cfg_dtype
from repro.nn.losses import WeightedMSE
from repro.nn.network import MLP
from repro.nn.optimizers import get_optimizer
from repro.nn.trainer import TrainConfig, Trainer
from tests import reference_training as oracle

# name: (layer sizes, hidden activation, output activation, TrainConfig
# overrides, fit options)
CASES = {
    "adam-sigmoid": ((3, 6, 2), "sigmoid", "sigmoid", {}, {}),
    "sgd-tanh-identity": ((3, 6, 2), "tanh", "identity", {"optimizer": "sgd"}, {}),
    "momentum-relu": ((3, 7, 2), "relu", "sigmoid", {"optimizer": "momentum"}, {}),
    "adam-weighted": ((3, 6, 2), "sigmoid", "sigmoid", {},
                      {"sample_weights": True, "port_weights": True}),
    "sgd-weighted-l2": ((3, 6, 2), "sigmoid", "sigmoid",
                        {"optimizer": "sgd", "l2": 1e-2}, {"sample_weights": True}),
    "adam-l2": ((3, 6, 2), "tanh", "sigmoid", {"l2": 1e-3}, {}),
    "momentum-noise": ((3, 6, 2), "sigmoid", "sigmoid",
                       {"optimizer": "momentum", "weight_noise_sigma": 0.05}, {}),
    "adam-noise-l2": ((3, 5, 2), "relu", "identity",
                      {"weight_noise_sigma": 0.1, "l2": 1e-3}, {}),
    "adam-patience": ((3, 6, 2), "sigmoid", "sigmoid",
                      {"epochs": 40, "patience": 2, "min_delta": 1e-3}, {"val": True}),
    "sgd-patience-decay": ((3, 6, 2), "tanh", "sigmoid",
                           {"optimizer": "sgd", "epochs": 30, "patience": 1,
                            "min_delta": 1e-4, "lr_decay": 0.5, "lr_decay_every": 3},
                           {"val": True}),
    "adam-val-untracked": ((3, 6, 2), "sigmoid", "sigmoid",
                           {"track_train_loss": False}, {"val": True}),
    "momentum-decay-log-every": ((3, 6, 2), "identity", "sigmoid",
                                 {"optimizer": "momentum", "lr_decay": 0.5,
                                  "lr_decay_every": 2, "log_every": 3}, {}),
    "momentum-decay-log-every-tracked": ((3, 6, 2), "identity", "sigmoid",
                                         {"optimizer": "momentum", "lr_decay": 0.5,
                                          "lr_decay_every": 2, "log_every": 3,
                                          "track_train_loss": True}, {}),
    "adam-3layer": ((3, 5, 4, 2), "sigmoid", "sigmoid", {}, {"port_weights": True}),
    "sgd-3layer-tanh": ((3, 5, 4, 2), "tanh", "identity", {"optimizer": "sgd"}, {}),
    "momentum-3layer-all": ((3, 5, 4, 2), "relu", "sigmoid",
                            {"optimizer": "momentum", "l2": 1e-3,
                             "weight_noise_sigma": 0.05, "lr_decay": 0.5,
                             "lr_decay_every": 2, "patience": 2, "epochs": 12},
                            {"val": True, "sample_weights": True, "port_weights": True}),
    "adam-3layer-identity": ((3, 5, 4, 2), "identity", "identity",
                             {"lr_decay": 0.1, "lr_decay_every": 4}, {}),
}


@pytest.fixture(params=["float64", "float32"])
def dtype(request):
    cfg_dtype.set_active_dtype(request.param)
    yield np.dtype(request.param)
    cfg_dtype.set_active_dtype(None)


def _data(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, 3))
    y = np.stack([0.2 + 0.6 * x[:, 0] * x[:, 1], 0.5 + 0.3 * np.sin(3 * x[:, 2])], axis=1)
    return x, y


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_fit_matches_reference(case, dtype):
    sizes, hidden, output, overrides, options = case
    config = TrainConfig(**{"epochs": 6, "batch_size": 16, "learning_rate": 0.05,
                            "shuffle_seed": 4, **overrides})
    x, y = _data(44, 0)  # 16 + 16 + a partial batch of 12
    kwargs = {}
    if options.get("val"):
        kwargs["x_val"], kwargs["y_val"] = _data(20, 1)
    if options.get("sample_weights"):
        kwargs["sample_weights"] = np.random.default_rng(2).uniform(0.2, 1.8, len(x))
    port_weights = (np.array([1.0, 0.25], dtype=dtype)
                    if options.get("port_weights") else None)

    model = MLP(sizes, hidden_activation=hidden, output_activation=output, rng=7)
    expected = oracle.fit(model, config, x, y, port_weights=port_weights, **kwargs)
    result = Trainer(loss=WeightedMSE(port_weights), config=config).fit(model, x, y, **kwargs)

    assert result.train_losses == expected["train_losses"]
    assert result.val_losses == expected["val_losses"]
    assert result.epochs_run == expected["epochs_run"]
    assert result.stopped_early == expected["stopped_early"]
    if overrides.get("patience") and overrides.get("epochs", 0) >= 30:
        assert result.stopped_early  # the early-stop branch is exercised
    if overrides.get("track_train_loss"):
        assert len(result.train_losses) == 2  # epochs 3 and 6: the history is exercised
    for layer, weights, bias in zip(model.layers, expected["weights"], expected["biases"]):
        assert layer.weights.dtype == weights.dtype == dtype
        assert layer.bias.dtype == bias.dtype == dtype
        assert np.array_equal(layer.weights, weights)
        assert np.array_equal(layer.bias, bias)


@pytest.mark.parametrize("name", sorted(oracle.OPTIMIZERS))
def test_optimizer_step_matches_reference(name, dtype):
    """``Optimizer.step(layers)`` on a hand-driven loop, outside ``fit``."""
    x, y = _data(12, 3)
    model = MLP((3, 4, 2), rng=5)
    layers = [oracle.Layer(l.weights, l.bias, l.activation.name) for l in model.layers]
    opt = get_optimizer(name, learning_rate=0.05)
    ref = oracle.OPTIMIZERS[name](learning_rate=0.05)
    loss = WeightedMSE()
    for _ in range(4):
        model.backward(loss.gradient(model.forward(x, train=True), y))
        opt.step(model.layers)
        oracle.backward(layers, oracle.loss_gradient(None, oracle.forward(layers, x, True), y))
        ref.step(layers)
    for layer, ref_layer in zip(model.layers, layers):
        assert np.array_equal(layer.weights, ref_layer.weights)
        assert np.array_equal(layer.bias, ref_layer.bias)
