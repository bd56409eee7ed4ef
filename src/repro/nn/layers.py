"""Dense layers with backprop for the NumPy MLP substrate.

Each :class:`DenseLayer` corresponds to one weight matrix ``W_ij`` plus
bias of Eq. (3) and — when the network is deployed on hardware — to one
pair of RRAM crossbars (positive/negative) followed by the analog
activation circuit.

:func:`flatten` packs a network's parameters and gradients into two
flat vectors the layers then view, so an optimizer step is a few
in-place passes over one vector.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.config.dtype import astype as _astype
from repro.nn.activations import Activation, get_activation
from repro.nn.initializers import xavier_uniform
from repro.parallel.seeding import ensure_rng

__all__ = ["DenseLayer", "flatten"]

InitFn = Callable[[np.random.Generator, int, int], np.ndarray]


class DenseLayer:
    """Fully connected layer ``y = f(x @ W + b)``.

    Parameters
    ----------
    in_dim, out_dim:
        Fan-in and fan-out.
    activation:
        Activation instance or registered name.
    rng:
        Generator for weight init (required unless ``weights`` given).
    weight_init:
        Initializer function; defaults to Xavier uniform.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        activation: "Activation | str" = "sigmoid",
        rng: Optional[np.random.Generator] = None,
        weight_init: InitFn = xavier_uniform,
    ):
        if in_dim < 1 or out_dim < 1:
            raise ValueError(f"layer dims must be >= 1, got {in_dim}x{out_dim}")
        if isinstance(activation, str):
            activation = get_activation(activation)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        rng = ensure_rng(rng, "nn.DenseLayer")
        self.weights = _astype(weight_init(rng, in_dim, out_dim))
        self.bias = np.zeros(out_dim, dtype=self.weights.dtype)
        self._reset_caches()

    def _reset_caches(self) -> None:
        # Gradient buffers backward() writes in place (views into the
        # flat gradient vector once flatten() packed the layer), and the
        # input/output caches of forward(train=True).
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self._x: Optional[np.ndarray] = None
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Run the layer on ``x`` at the layer's dtype; cache inputs/outputs when training."""
        pre = x @ self.weights
        pre += self.bias
        out = self.activation.forward(pre)
        if train:
            self._x = x
            self._out = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backprop through the layer.

        Parameters
        ----------
        grad_out:
            Gradient of the loss w.r.t. this layer's output.

        Returns
        -------
        Gradient w.r.t. this layer's input.  Weight/bias gradients are
        written into ``grad_weights`` / ``grad_bias`` in place.
        """
        return self.backward_params(grad_out) @ self.weights.T

    def backward_params(self, grad_out: np.ndarray) -> np.ndarray:
        """Weight/bias gradients only (no input gradient).

        Writes ``grad_weights`` / ``grad_bias`` in place and returns the
        gradient w.r.t. the pre-activation; the activation derivative
        comes from the output cached by ``forward(train=True)``.
        """
        if self._x is None or self._out is None:
            raise RuntimeError("backward() called before forward(train=True)")
        delta = self.activation.derivative(self._out)
        delta *= grad_out
        np.matmul(self._x.T, delta, out=self.grad_weights)
        np.add.reduce(delta, axis=0, out=self.grad_bias)
        return delta

    def copy(self) -> "DenseLayer":
        """Deep copy of the layer (weights and activation shared by type)."""
        clone = DenseLayer.__new__(DenseLayer)
        clone.in_dim = self.in_dim
        clone.out_dim = self.out_dim
        clone.activation = type(self.activation)()
        clone.weights = self.weights.copy()
        clone.bias = self.bias.copy()
        clone._reset_caches()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DenseLayer({self.in_dim}->{self.out_dim}, {self.activation.name})"


def flatten(layers: List[DenseLayer]) -> Tuple[np.ndarray, np.ndarray]:
    """One flat parameter vector and its gradient vector for ``layers``.

    Each layer's ``weights``/``bias`` (and ``grad_weights``/``grad_bias``)
    are copied in and rebound as views into the two vectors, in layer
    order, weights before bias.  The vectors take the first layer's
    weight dtype.
    """
    size = sum(layer.weights.size + layer.bias.size for layer in layers)
    params = np.empty(size, dtype=layers[0].weights.dtype)
    grads = np.empty_like(params)
    offset = 0
    for layer in layers:
        for name in ("weights", "bias"):
            param = getattr(layer, name)
            grad = getattr(layer, f"grad_{name}")
            end = offset + param.size
            view, grad_view = params[offset:end], grads[offset:end]
            view[...] = param.reshape(-1)
            grad_view[...] = grad.reshape(-1)
            setattr(layer, name, view.reshape(param.shape))
            setattr(layer, f"grad_{name}", grad_view.reshape(param.shape))
            offset = end
    return params, grads
