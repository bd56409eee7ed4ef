"""Per-parameter reference training loop the flat training step is pinned to.

The minibatch step in its plain form: each layer caches its
pre-activation and backprop evaluates the activation derivative there
(recomputing the forward activation); the Eq. 4/5 loss builds its
gradient out of place; each optimizer keeps its state per
``"<layer>/<weights|bias>"`` key and updates one parameter array at a
time with fresh temporaries.  The loop trains copies of a model's
parameters and reads only its public attributes (``weights``, ``bias``,
``activation.name``), so it runs unchanged against any tree.
"""

from typing import Dict, List

import numpy as np

from repro.config.dtype import active_dtype
from repro.config.dtype import astype as _astype
from repro.nn.datasets import minibatches


def activation_forward(name, x):
    if name == "sigmoid":
        x = np.clip(x, -60.0, 60.0)
        return 1.0 / (1.0 + np.exp(-x))
    if name == "tanh":
        return np.tanh(x)
    if name == "relu":
        return np.maximum(x, 0.0)
    return _astype(x)


def activation_backward(name, x):
    """Derivative of the activation evaluated at pre-activation ``x``."""
    if name == "sigmoid":
        s = activation_forward(name, x)
        return s * (1.0 - s)
    if name == "tanh":
        t = np.tanh(x)
        return 1.0 - t * t
    if name == "relu":
        return _astype(x > 0.0)
    return np.ones_like(_astype(x))


class Layer:
    """One dense layer ``y = f(x @ W + b)`` with pre-activation backprop."""

    def __init__(self, weights, bias, activation):
        self.weights = weights.copy()
        self.bias = bias.copy()
        self.activation = activation
        self._x = None
        self._pre = None

    def forward(self, x, train=False):
        x = _astype(x)
        pre = x @ self.weights + self.bias
        if train:
            self._x = x
            self._pre = pre
        return activation_forward(self.activation, pre)

    def backward(self, grad_out):
        delta = grad_out * activation_backward(self.activation, self._pre)
        self.grad_weights = self._x.T @ delta
        self.grad_bias = delta.sum(axis=0)
        return delta @ self.weights.T

    def params(self):
        return {"weights": self.weights, "bias": self.bias}

    def grads(self):
        return {"weights": self.grad_weights, "bias": self.grad_bias}

    def copy(self):
        return Layer(self.weights, self.bias, self.activation)


def forward(layers, x, train=False):
    out = _astype(x)
    for layer in layers:
        out = layer.forward(out, train=train)
    return out


def backward(layers, grad_out):
    grad = grad_out
    for layer in reversed(layers):
        grad = layer.backward(grad)
    return grad


def sq_weights(port_weights, n_ports):
    if port_weights is None:
        return np.ones(n_ports, dtype=active_dtype())
    return port_weights**2


def loss_value(port_weights, predicted, target, sample_weights=None):
    predicted = _astype(predicted)
    target = _astype(target)
    per_sample = ((predicted - target) ** 2) @ sq_weights(port_weights, predicted.shape[1])
    if sample_weights is not None:
        per_sample = per_sample * _astype(sample_weights)
    return float(np.mean(per_sample))


def loss_gradient(port_weights, predicted, target, sample_weights=None):
    predicted = _astype(predicted)
    target = _astype(target)
    sq = sq_weights(port_weights, predicted.shape[1])
    grad = 2.0 * (predicted - target) * sq / predicted.shape[0]
    if sample_weights is not None:
        grad = grad * _astype(sample_weights)[:, None]
    return grad


class Optimizer:
    def __init__(self, learning_rate=0.1):
        self.learning_rate = learning_rate

    def step(self, layers):
        for i, layer in enumerate(layers):
            params = layer.params()
            grads = layer.grads()
            for name, param in params.items():
                update = self._update(f"{i}/{name}", grads[name])
                param -= update

    def _update(self, key, grad):
        raise NotImplementedError


class SGD(Optimizer):
    def _update(self, key, grad):
        del key
        return self.learning_rate * grad


class Momentum(Optimizer):
    def __init__(self, learning_rate=0.1, momentum=0.9):
        super().__init__(learning_rate)
        self.momentum = momentum
        self._velocity: Dict[str, np.ndarray] = {}

    def _update(self, key, grad):
        v = self._velocity.get(key)
        if v is None:
            v = np.zeros_like(grad)
        v = self.momentum * v + self.learning_rate * grad
        self._velocity[key] = v
        return v


class Adam(Optimizer):
    def __init__(self, learning_rate=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        super().__init__(learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}
        self._t = 0

    def step(self, layers):
        self._t += 1
        super().step(layers)

    def _update(self, key, grad):
        m = self._m.get(key, np.zeros_like(grad))
        v = self._v.get(key, np.zeros_like(grad))
        m = self.beta1 * m + (1 - self.beta1) * grad
        v = self.beta2 * v + (1 - self.beta2) * grad * grad
        self._m[key] = m
        self._v[key] = v
        m_hat = m / (1 - self.beta1**self._t)
        v_hat = v / (1 - self.beta2**self._t)
        return self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


OPTIMIZERS = {"sgd": SGD, "momentum": Momentum, "adam": Adam}


def fit(model, config, x, y, x_val=None, y_val=None, sample_weights=None,
        port_weights=None) -> dict:
    """Train copies of ``model``'s parameters as ``Trainer.fit`` does.

    Returns the trained ``weights`` and ``biases`` (lists, one array per
    layer) and the history: ``train_losses``, ``val_losses``,
    ``epochs_run``, ``stopped_early``.
    """
    layers: List[Layer] = [Layer(l.weights, l.bias, l.activation.name) for l in model.layers]
    x = _astype(x)
    y = _astype(y)
    if sample_weights is not None:
        sample_weights = _astype(sample_weights)
    optimizer = OPTIMIZERS[config.optimizer](learning_rate=config.learning_rate)
    rng = np.random.default_rng(config.shuffle_seed)
    train_losses: List[float] = []
    val_losses: List[float] = []
    epochs_run = 0
    stopped_early = False
    best_val = float("inf")
    bad_epochs = 0
    best_layers = None
    for epoch in range(config.epochs):
        if config.lr_decay_every and epoch and epoch % config.lr_decay_every == 0:
            optimizer.learning_rate *= config.lr_decay
        for xb, yb, wb in minibatches(x, y, config.batch_size, rng, sample_weights):
            clean_weights = None
            if config.weight_noise_sigma > 0:
                clean_weights = [layer.weights.copy() for layer in layers]
                for layer in layers:
                    layer.weights *= rng.lognormal(
                        0.0, config.weight_noise_sigma, layer.weights.shape
                    )
            pred = forward(layers, xb, train=True)
            backward(layers, loss_gradient(port_weights, pred, yb, wb))
            if clean_weights is not None:
                for layer, weights in zip(layers, clean_weights):
                    layer.weights[...] = weights
            if config.l2 > 0:
                for layer in layers:
                    layer.grad_weights += config.l2 * layer.weights
            optimizer.step(layers)

        if config.track_train_loss and (
            (epoch + 1) % config.log_every == 0 or epoch + 1 == config.epochs
        ):
            train_losses.append(
                loss_value(port_weights, forward(layers, x), y, sample_weights)
            )
        epochs_run = epoch + 1
        if x_val is not None and y_val is not None:
            val = loss_value(port_weights, forward(layers, x_val), _astype(y_val))
            val_losses.append(val)
            if config.patience:
                if val < best_val - config.min_delta:
                    best_val = val
                    bad_epochs = 0
                    best_layers = [layer.copy() for layer in layers]
                else:
                    bad_epochs += 1
                    if bad_epochs >= config.patience:
                        stopped_early = True
                        break
    if stopped_early and best_layers is not None:
        layers = best_layers
    return {
        "weights": [layer.weights for layer in layers],
        "biases": [layer.bias for layer in layers],
        "train_losses": train_losses,
        "val_losses": val_losses,
        "epochs_run": epochs_run,
        "stopped_early": stopped_early,
    }
