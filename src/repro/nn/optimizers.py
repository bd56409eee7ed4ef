"""Gradient-descent optimizers for the MLP substrate.

An optimizer updates a network's parameters as one flat vector
(:func:`repro.nn.layers.flatten`).  Its state (velocity, moments) is
a flat array of the same size, and a step is a fixed handful of
in-place ufunc passes over the whole vector.  Each pass keeps the
per-element operation order of the textbook update (e.g. Adam's
``m = b1*m + (1-b1)*g`` is ``m *= b1`` then ``m += (1-b1)*g``), so a
step gives the same bits as updating one parameter array at a time.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn.layers import DenseLayer, flatten

__all__ = ["Optimizer", "SGD", "Momentum", "Adam", "get_optimizer"]


class Optimizer:
    """Base optimizer applying in-place updates to a flat parameter vector."""

    def __init__(self, learning_rate: float = 0.1):
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate
        self._scratch: Optional[np.ndarray] = None

    def step(self, layers: List[DenseLayer]) -> None:
        """Update ``layers`` from their current gradients.

        Packs the layers into fresh flat vectors on every call; a
        training loop packs once and calls :meth:`update` instead.
        """
        self.update(*flatten(layers))

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One in-place step of the flat ``params`` along the flat ``grads``."""
        raise NotImplementedError

    def _buffer(self, grads: np.ndarray) -> np.ndarray:
        if self._scratch is None:
            self._scratch = np.empty_like(grads)
        return self._scratch


class SGD(Optimizer):
    """Vanilla stochastic gradient descent."""

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        params -= np.multiply(grads, self.learning_rate, out=self._buffer(grads))


class Momentum(Optimizer):
    """Heavy-ball momentum."""

    def __init__(self, learning_rate: float = 0.1, momentum: float = 0.9):
        super().__init__(learning_rate)
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity: Optional[np.ndarray] = None

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        if self._velocity is None:
            self._velocity = np.zeros_like(grads)
        v = self._velocity
        v *= self.momentum
        v += np.multiply(grads, self.learning_rate, out=self._buffer(grads))
        params -= v


class Adam(Optimizer):
    """Adam optimizer — the default trainer workhorse."""

    def __init__(
        self,
        learning_rate: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(learning_rate)
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self._denom: Optional[np.ndarray] = None
        self._t = 0

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        self._t += 1
        if self._m is None or self._v is None or self._denom is None:
            self._m = np.zeros_like(grads)
            self._v = np.zeros_like(grads)
            self._denom = np.empty_like(grads)
        m, v, denom, tmp = self._m, self._v, self._denom, self._buffer(grads)
        m *= self.beta1
        m += np.multiply(grads, 1 - self.beta1, out=tmp)
        v *= self.beta2
        np.multiply(grads, 1 - self.beta2, out=tmp)
        tmp *= grads
        v += tmp
        # lr * m_hat / (sqrt(v_hat) + eps), bias corrections m_hat, v_hat.
        np.divide(v, 1 - self.beta2**self._t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.divide(m, 1 - self.beta1**self._t, out=tmp)
        tmp *= self.learning_rate
        tmp /= denom
        params -= tmp


_REGISTRY = {"sgd": SGD, "momentum": Momentum, "adam": Adam}


def get_optimizer(name: str, **kwargs) -> Optimizer:
    """Instantiate an optimizer by name ('sgd', 'momentum', 'adam')."""
    try:
        return _REGISTRY[name](**kwargs)
    except KeyError:
        raise ValueError(f"unknown optimizer {name!r}; known: {sorted(_REGISTRY)}") from None
