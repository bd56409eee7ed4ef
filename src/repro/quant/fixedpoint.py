"""Fixed-point codecs between real values and binary bit arrays.

MEI (Sec. 3.1 of the paper) replaces the analog DAC/ADC interface with
one crossbar port per bit of the fixed-point representation.  This
module provides the value <-> bit-array codec used everywhere:

* Values are normalized to the unit interval ``[0, 1)`` before
  encoding (the workload layer owns the normalization to/from
  engineering units).
* A ``B``-bit code word is an unsigned fractional binary number
  ``b_1 b_2 ... b_B`` with value ``sum_i b_i * 2**-i``; ``b_1`` is the
  most significant bit (MSB), matching the paper's 8-bit AD/DA
  convention.

The codec is vectorized: encoding an ``(n, d)`` array of values yields
an ``(n, d * bits)`` array of bits, bit groups laid out per input
dimension, MSB first inside each group.  That port ordering is what the
pruning pass (Sec. 4.3) relies on when it strips LSB ports group by
group.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.config.dtype import astype as _astype

__all__ = ["FixedPointCodec", "quantize_unit", "bit_place_values"]


@functools.lru_cache(maxsize=None)
def bit_place_values(bits: int, like: "np.dtype | None" = None) -> np.ndarray:
    """Place values ``2**-1 ... 2**-bits`` of a ``bits``-bit fraction, read-only.

    The first entry corresponds to the MSB.  They are float64, or the
    float dtype that ``like`` (e.g. a bit array's dtype) promotes to.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    values = np.ldexp(1.0, -np.arange(1, bits + 1))
    if like is not None:
        values = values.astype(np.result_type(like, 0.5))
    values.flags.writeable = False
    return values


def quantize_unit(values: np.ndarray, bits: int) -> np.ndarray:
    """Quantize values in ``[0, 1)`` to a ``bits``-bit uniform grid.

    Values are clipped into the representable range first, so the
    function models an ideal saturating AD/DA converter.
    """
    values = _astype(values)
    levels = 2**bits
    codes = np.clip(np.floor(values * levels), 0, levels - 1)
    return codes / levels


@dataclass(frozen=True)
class FixedPointCodec:
    """Unsigned fixed-point codec for values normalized to ``[0, 1)``.

    Parameters
    ----------
    bits:
        Word length ``B``.  The paper uses ``B_r = 8`` to match the
        8-bit AD/DA baseline.
    """

    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 32:
            raise ValueError(f"bits must be in [1, 32], got {self.bits}")

    @property
    def resolution(self) -> float:
        """Value of one LSB (the quantization step)."""
        return 2.0**-self.bits

    @property
    def place_values(self) -> np.ndarray:
        """Per-bit place values, MSB first."""
        return bit_place_values(self.bits)

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Encode values in ``[0, 1)`` into 0/1 bit arrays.

        An input of shape ``(..., d)`` produces bits of shape
        ``(..., d * bits)``; each value expands into a contiguous
        MSB-first group.  The bits take the values' float dtype.
        """
        values = np.atleast_1d(values)
        levels = 2**self.bits
        scaled = np.floor(values * levels)
        # np.clip's ufunc pair, without its Python-level wrapper.
        np.maximum(scaled, 0, out=scaled)
        codes = np.minimum(scaled, levels - 1, out=scaled).astype(np.int64)
        shifts = np.arange(self.bits - 1, -1, -1)
        bits = (codes[..., None] >> shifts) & 1
        return bits.reshape(*values.shape[:-1], values.shape[-1] * self.bits).astype(scaled.dtype)

    def decode(self, bits: np.ndarray) -> np.ndarray:
        """Decode 0/1 bit arrays back into values in ``[0, 1)``.

        Accepts soft bits in ``[0, 1]`` as well (e.g. raw analog
        outputs before the comparator); they contribute fractionally.
        The trailing axis must be a multiple of ``self.bits``; the
        values take the bits' float dtype.
        """
        bits = np.asarray(bits)
        if bits.shape[-1] % self.bits:
            raise ValueError(
                f"trailing axis {bits.shape[-1]} is not a multiple of word length {self.bits}"
            )
        groups = bits.reshape(*bits.shape[:-1], bits.shape[-1] // self.bits, self.bits)
        return groups @ bit_place_values(self.bits, bits.dtype)

    def ports(self, dims: int) -> int:
        """Number of crossbar ports needed for ``dims`` values."""
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        return dims * self.bits

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Round-trip a value through the codec (ideal B-bit AD/DA)."""
        return quantize_unit(values, self.bits)
