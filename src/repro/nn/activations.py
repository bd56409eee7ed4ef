"""Activation functions for the NumPy MLP substrate.

The RCS realizes the nonlinear activation with analog circuits
(Sec. 2.1); the paper's networks use sigmoid-style neurons.  Each
activation exposes ``forward`` and ``derivative``, the derivative in
terms of the activation's *output*, so a training layer backprops from
the output it already cached instead of re-evaluating the activation.
``backward(x)`` is the derivative at pre-activation ``x``.
"""

from __future__ import annotations

import numpy as np


__all__ = ["Activation", "Sigmoid", "Tanh", "Relu", "Identity", "get_activation"]


class Activation:
    """Base class for activation functions."""

    name = "base"

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivative(self, y: np.ndarray) -> np.ndarray:
        """Derivative as a fresh array, from the output ``y = forward(x)``."""
        raise NotImplementedError

    def backward(self, x: np.ndarray) -> np.ndarray:
        """Derivative of the activation evaluated at pre-activation x."""
        return self.derivative(self.forward(x))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Sigmoid(Activation):
    """Logistic sigmoid — the analog neuron of the paper's RCS."""

    name = "sigmoid"

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Clip to avoid overflow in exp for extreme pre-activations, then
        # build 1 / (1 + exp(-x)) in the clipped copy.
        y = np.asarray(np.maximum(x, -60.0))
        np.minimum(y, 60.0, out=y)
        np.negative(y, out=y)
        np.exp(y, out=y)
        y += 1.0
        return np.divide(1.0, y, out=y)

    def derivative(self, y: np.ndarray) -> np.ndarray:
        d = 1.0 - y
        d *= y
        return d


class Tanh(Activation):
    """Hyperbolic tangent neuron."""

    name = "tanh"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def derivative(self, y: np.ndarray) -> np.ndarray:
        return 1.0 - y * y


class Relu(Activation):
    """Rectified linear unit (not used by the paper; kept for studies)."""

    name = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def derivative(self, y: np.ndarray) -> np.ndarray:
        # y = max(x, 0) is positive exactly where x is.
        return (y > 0.0).astype(y.dtype)


class Identity(Activation):
    """Linear output stage (plain summing amplifier)."""

    name = "identity"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def derivative(self, y: np.ndarray) -> np.ndarray:
        return np.ones_like(y)


_REGISTRY = {cls.name: cls for cls in (Sigmoid, Tanh, Relu, Identity)}


def get_activation(name: str) -> Activation:
    """Look up an activation by name ('sigmoid', 'tanh', 'relu', 'identity')."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; known: {sorted(_REGISTRY)}") from None
