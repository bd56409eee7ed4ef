"""Analog peripheral circuits: sigmoid neuron, comparator, buffers.

The RCS realizes Eq. (3)'s nonlinearity with analog circuits (op-amp
sigmoid units); MEI replaces the output ADCs with 1-bit comparators or
flip-flop buffers (Sec. 3.1).  Both are modeled behaviourally here:

* :class:`SigmoidNeuron` applies gain/offset (restoring the crossbar
  mapping scale and the trained bias) and then the sigmoid transfer
  curve, with optional offset error per unit;
* :class:`Comparator` thresholds an analog level to a clean digital
  0/1, with optional input-referred offset noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config.dtype import astype as _astype, fits_in_place
from repro.parallel.seeding import ensure_rng
from repro.sanitize import guards as sanitize_guards

__all__ = ["SigmoidNeuron", "Comparator"]


@dataclass
class SigmoidNeuron:
    """Analog sigmoid activation stage for one crossbar output bank.

    Parameters
    ----------
    gain:
        Voltage gain applied before the sigmoid; restores the
        weight-to-coefficient mapping scale (``DifferentialCrossbar.gain``).
    bias:
        Per-output offset realizing the trained bias vector.
    offset_sigma:
        Std-dev of a random per-unit input-referred offset (op-amp
        mismatch); drawn once at construction, i.e. static mismatch.
    rng:
        Generator for the mismatch draw.
    """

    gain: float
    bias: np.ndarray
    offset_sigma: float = 0.0
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        self.bias = np.atleast_1d(_astype(self.bias))
        if self.offset_sigma < 0:
            raise ValueError("offset_sigma must be >= 0")
        if self.offset_sigma > 0:
            rng = ensure_rng(self.rng, "analog.SigmoidNeuron")
            self._offsets = rng.normal(0.0, self.offset_sigma, self.bias.shape)
        else:
            self._offsets = np.zeros_like(self.bias)

    def apply(self, analog_in: np.ndarray) -> np.ndarray:
        """Gain, bias, static mismatch offset, then sigmoid.

        Computes ``1 / (1 + exp(-clip(gain * x + bias + offsets)))``
        step by step in one buffer it owns (the gain product), so a
        ``(trials, samples, ports)`` stack costs one allocation instead
        of one per operation; ``analog_in`` is only read.
        """
        analog_in = _astype(analog_in)
        sanitize_guards.check_finite("periphery", "neuron_in", analog_in)
        pre = self.gain * analog_in
        if fits_in_place(pre, self.bias, self._offsets):
            pre += self.bias
            pre += self._offsets
        else:  # promotes, e.g. float64 mismatch offsets on a float32 stack
            pre = pre + self.bias + self._offsets
        np.clip(pre, -60.0, 60.0, out=pre)
        np.negative(pre, out=pre)
        np.exp(pre, out=pre)
        pre += 1.0
        return np.divide(1.0, pre, out=pre)


@dataclass
class Comparator:
    """1-bit output stage (comparator / flip-flop buffer) for MEI.

    Parameters
    ----------
    threshold:
        Decision level on the unit interval.
    offset_sigma:
        Std-dev of the comparator's input-referred offset, drawn per
        conversion (dynamic noise); 0 = ideal.
    seed:
        When set, offset draws come from an instance-owned generator
        seeded here, so two comparators built with the same seed
        produce identical offset streams — the pairing the
        error-budget counterfactuals rely on.  An explicit ``rng``
        passed to :meth:`apply` still takes precedence.
    """

    threshold: float = 0.5
    offset_sigma: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.offset_sigma < 0:
            raise ValueError("offset_sigma must be >= 0")
        self._rng = np.random.default_rng(self.seed) if self.seed is not None else None

    def apply(self, analog_in: np.ndarray, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Threshold analog levels into hard 0/1 bits."""
        analog_in = _astype(analog_in)
        sanitize_guards.check_finite("periphery", "comparator_in", analog_in)
        threshold = self.threshold
        if self.offset_sigma > 0:
            rng = ensure_rng(rng if rng is not None else self._rng, "analog.Comparator")
            threshold = threshold + rng.normal(0.0, self.offset_sigma, analog_in.shape)
        return _astype(analog_in >= threshold)
