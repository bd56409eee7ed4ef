"""Loss functions, including the MSB-weighted MSE of Eq. (5).

The paper trains RCS networks by minimizing

    sum_n sum_p [ w_p * (t_p(n) - o_p(n)) ]**2        (Eq. 5)

where ``w_p`` is a per-output-port weight.  With ``w_p = 1`` this is
the ordinary sum-of-squares loss of Eq. (4); for MEI the weights decay
exponentially from the MSB port to the LSB port so that MSB errors
dominate the gradient.

Losses also accept per-sample weights, which SAAB (Algorithm 1) uses
when training a learner on the reweighted sample distribution.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.config.dtype import astype as _astype

__all__ = ["Loss", "WeightedMSE", "mse"]


def mse(predicted: np.ndarray, target: np.ndarray) -> float:
    """Plain mean squared error over all samples and ports."""
    predicted = _astype(predicted)
    target = _astype(target)
    if predicted.shape != target.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs {target.shape}")
    return float(np.mean((predicted - target) ** 2))


class Loss:
    """Base class: value and gradient with respect to predictions."""

    def value(
        self,
        predicted: np.ndarray,
        target: np.ndarray,
        sample_weights: Optional[np.ndarray] = None,
    ) -> float:
        raise NotImplementedError

    def gradient(
        self,
        predicted: np.ndarray,
        target: np.ndarray,
        sample_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        raise NotImplementedError


class WeightedMSE(Loss):
    """Port-weighted mean squared error (Eq. 5).

    Parameters
    ----------
    port_weights:
        Weights ``w_p`` per output port; ``None`` means uniform (Eq. 4).
        Stored squared internally since the loss uses ``(w_p * e_p)**2``.
    """

    def __init__(self, port_weights: Optional[np.ndarray] = None):
        if port_weights is not None:
            port_weights = _astype(port_weights)
            if port_weights.ndim != 1:
                raise ValueError("port_weights must be a 1-D array")
            if np.any(port_weights < 0):
                raise ValueError("port_weights must be non-negative")
        self.port_weights = port_weights
        self._sq = None if port_weights is None else port_weights**2

    def _sq_weights(self, predicted: np.ndarray) -> np.ndarray:
        sq = self._sq
        n_ports = predicted.shape[1]
        if sq is None:
            return np.ones(n_ports, dtype=predicted.dtype)
        if sq.shape[0] != n_ports:
            raise ValueError(
                f"loss has {sq.shape[0]} port weights "
                f"but predictions have {n_ports} ports"
            )
        return sq

    @staticmethod
    def _check(predicted: np.ndarray, target: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        predicted = _astype(predicted)
        target = _astype(target)
        if predicted.shape != target.shape:
            raise ValueError(f"shape mismatch: {predicted.shape} vs {target.shape}")
        if predicted.ndim != 2:
            raise ValueError("expected (n_samples, n_ports) arrays")
        return predicted, target

    def value(
        self,
        predicted: np.ndarray,
        target: np.ndarray,
        sample_weights: Optional[np.ndarray] = None,
    ) -> float:
        predicted, target = self._check(predicted, target)
        sq = self._sq_weights(predicted)
        per_sample = ((predicted - target) ** 2) @ sq
        if sample_weights is not None:
            per_sample = per_sample * _astype(sample_weights)
        return float(np.mean(per_sample))

    def gradient(
        self,
        predicted: np.ndarray,
        target: np.ndarray,
        sample_weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        predicted, target = self._check(predicted, target)
        sq = self._sq_weights(predicted)
        # 2 * (p - t) * sq / n [* w], one buffer, same operation order.
        grad = np.subtract(predicted, target)
        grad *= 2.0
        grad *= sq
        grad /= predicted.shape[0]
        if sample_weights is not None:
            grad *= _astype(sample_weights)[:, None]
        return grad
