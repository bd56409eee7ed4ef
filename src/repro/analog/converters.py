"""Behavioural AD/DA converter models.

The traditional RCS (the paper's baseline) wraps the crossbar in B-bit
DACs on the inputs and B-bit ADCs on the outputs.  We model them
behaviourally:

* quantization to ``2**B`` uniform levels over the unit interval;
* optional input-referred noise (in LSBs) capturing the effective
  number of bits of a real converter;
* saturation at the rails.

These models carry the accuracy impact of the interface; their area
and power live in :mod:`repro.cost`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.parallel.seeding import ensure_rng
from repro.quant.fixedpoint import quantize_unit
from repro.sanitize import guards as sanitize_guards

__all__ = ["DAC", "ADC"]


@dataclass(frozen=True)
class DAC:
    """B-bit digital-to-analog converter over the unit interval.

    Parameters
    ----------
    bits:
        Resolution.
    noise_lsb:
        RMS output noise in LSBs (0 = ideal).
    seed:
        When set, noise draws come from an instance-owned generator
        seeded here, giving two converters with the same seed identical
        noise streams (paired error-budget counterfactuals).  An
        explicit ``rng`` passed to :meth:`convert` takes precedence.
    """

    bits: int = 8
    noise_lsb: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 32:
            raise ValueError(f"bits must be in [1, 32], got {self.bits}")
        if self.noise_lsb < 0:
            raise ValueError("noise_lsb must be >= 0")
        # Not a dataclass field: the frozen eq/hash stay seed-based.
        object.__setattr__(
            self,
            "_rng",
            np.random.default_rng(self.seed) if self.seed is not None else None,
        )

    def convert(self, digital: np.ndarray, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Digital codes (as unit-interval values) -> analog voltages."""
        sanitize_guards.check_finite("dac", "digital_in", np.asarray(digital))
        analog = quantize_unit(digital, self.bits)
        if self.noise_lsb > 0:
            rng = ensure_rng(rng if rng is not None else self._rng, "analog.DAC")
            analog = analog + rng.normal(0.0, self.noise_lsb * 2.0**-self.bits, analog.shape)
        return np.clip(analog, 0.0, 1.0 - 2.0**-self.bits)


@dataclass(frozen=True)
class ADC:
    """B-bit analog-to-digital converter over the unit interval.

    Parameters
    ----------
    bits:
        Resolution.
    noise_lsb:
        RMS input-referred noise in LSBs (0 = ideal).
    seed:
        Instance-owned generator seed (see :class:`DAC`); ``None``
        keeps the context-seeded behaviour.
    """

    bits: int = 8
    noise_lsb: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 32:
            raise ValueError(f"bits must be in [1, 32], got {self.bits}")
        if self.noise_lsb < 0:
            raise ValueError("noise_lsb must be >= 0")
        object.__setattr__(
            self,
            "_rng",
            np.random.default_rng(self.seed) if self.seed is not None else None,
        )

    def convert(self, analog: np.ndarray, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Analog voltages (at the chip's dtype) -> quantized unit-interval digital values."""
        sanitize_guards.check_finite("adc", "analog_in", analog)
        if self.noise_lsb > 0:
            rng = ensure_rng(rng if rng is not None else self._rng, "analog.ADC")
            analog = analog + rng.normal(0.0, self.noise_lsb * 2.0**-self.bits, analog.shape)
        return quantize_unit(analog, self.bits)
