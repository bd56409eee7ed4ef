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

_DECISION_BAND_ULPS = 2**10
"""Half-width, in ``eps`` of the stack's dtype, of the band about a zero
pre-activation inside which :meth:`SigmoidNeuron.at_least_half`
evaluates the sigmoid instead of taking the sign."""


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
        return _sigmoid_in_place(self._exp_argument(analog_in))

    def at_least_half(self, analog_in: np.ndarray) -> np.ndarray:
        """``apply(analog_in) >= 0.5`` as 1.0/0.0, decided on the pre-activation.

        The sigmoid of ``z = gain * x + bias + offsets`` reaches 0.5
        iff ``z >= 0``, except within a few ulps of 0, where ``exp`` and
        ``1 + ·`` round onto 0.5 exactly (e.g. at a tiny negative
        ``z``).  Outside a band of ``2**10 * eps`` (of the stack's
        dtype) about 0 the sigmoid is hundreds of ulps away from 0.5,
        so the sign of ``z`` decides; the rare elements inside it are
        re-decided with :meth:`apply`'s own formula.  ``analog_in`` is
        consumed as scratch: a writable stack of the active dtype is
        overwritten with ``-z`` and then with the decision, 1.0 or 0.0,
        which is returned in it (else in a fresh buffer).
        """
        arg = self._exp_argument(analog_in, scratch=True)
        band = _DECISION_BAND_ULPS * np.finfo(arg.dtype).eps
        high = arg <= -band
        if np.count_nonzero(arg < band) != np.count_nonzero(high):
            near = np.flatnonzero((arg < band) ^ high)
            high.flat[near] = _sigmoid_in_place(arg.flat[near]) >= 0.5
        np.copyto(arg, high)
        return arg

    def _exp_argument(self, analog_in: np.ndarray, scratch: bool = False) -> np.ndarray:
        """``-(gain * x + bias + offsets)``: the sigmoid's exp argument, unclipped.

        Built as ``(-gain) * x - bias - offsets``: IEEE rounding is
        symmetric in sign, so this is the negated sum bit for bit but
        for the sign of an exact zero, which only ever reaches
        ``exp(±0) = 1``.  Zero offsets (``offset_sigma == 0``) are not
        subtracted.  With ``scratch``, a writable ``analog_in`` of the
        result's dtype is the buffer; otherwise it is only read.
        """
        analog_in = _astype(analog_in)
        sanitize_guards.check_finite("periphery", "neuron_in", analog_in)
        neg_gain = -self.gain
        if scratch and fits_in_place(analog_in, neg_gain):
            arg = np.multiply(analog_in, neg_gain, out=analog_in)
        else:
            arg = neg_gain * analog_in
        terms = (self.bias, self._offsets) if self.offset_sigma > 0 else (self.bias,)
        if fits_in_place(arg, *terms):
            for term in terms:
                arg -= term
            return arg
        # Promotes, e.g. float64 mismatch offsets on a float32 stack.
        for term in terms:
            arg = arg - term
        return arg


def _sigmoid_in_place(arg: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(clip(arg)))`` built in ``arg``; ``arg`` is the negated pre-activation."""
    np.clip(arg, -60.0, 60.0, out=arg)
    np.exp(arg, out=arg)
    arg += 1.0
    return np.divide(1.0, arg, out=arg)


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

    @property
    def is_ideal(self) -> bool:
        """No offset noise and the midpoint threshold: a sigmoid's sign decides."""
        return self.offset_sigma == 0 and self.threshold == 0.5

    def apply(
        self,
        analog_in: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        neuron: Optional[SigmoidNeuron] = None,
    ) -> np.ndarray:
        """Threshold analog levels into hard 0/1 bits.

        With ``neuron``, ``analog_in`` is that sigmoid stage's *input*
        (consumed as scratch) and the bits are those of its output
        level, decided by :meth:`SigmoidNeuron.at_least_half` without
        evaluating the sigmoid.  Only an ideal comparator
        (:attr:`is_ideal`) can decide that way.
        """
        if neuron is not None:
            if not self.is_ideal:
                raise ValueError("only an ideal comparator decides on a neuron's input")
            return _astype(neuron.at_least_half(analog_in))
        analog_in = _astype(analog_in)
        sanitize_guards.check_finite("periphery", "comparator_in", analog_in)
        threshold = self.threshold
        if self.offset_sigma > 0:
            rng = ensure_rng(rng if rng is not None else self._rng, "analog.Comparator")
            threshold = threshold + rng.normal(0.0, self.offset_sigma, analog_in.shape)
        return _astype(analog_in >= threshold)
