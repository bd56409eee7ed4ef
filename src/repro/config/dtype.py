"""The ``REPRO_DTYPE`` knob: one floating dtype for the data path.

The numeric substrate (``repro.nn``, ``repro.xbar``, ``repro.quant``)
runs in float64 by default — every equivalence test in the repository
asserts bit-identical float64 results across serial/vectorized paths.
``REPRO_DTYPE=float32`` opts the deterministic data path into single
precision, halving memory traffic for large sweeps; its accuracy cost
is not yet measured per benchmark (see ``docs/performance.md``).

Monte-Carlo noise draws stay float64 (the RNG streams are part of the
reproducibility contract), so noisy inference upcasts; the training,
mapping and ideal-inference paths honour the knob end to end.

The resolved dtype is cached per process: the knob is read once, on
first use.  Tests override with :func:`set_active_dtype` (or reset
with ``None`` to re-read the environment).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
from numpy.typing import ArrayLike

from repro.config import knobs

__all__ = [
    "DTYPE_ENV",
    "DTYPE_NAMES",
    "active_dtype",
    "astype",
    "fits_in_place",
    "resolve_dtype",
    "set_active_dtype",
]

DTYPE_ENV = "REPRO_DTYPE"
"""Environment variable selecting the data-path floating dtype."""

DTYPE_NAMES = ("float64", "float32")
"""Legal ``REPRO_DTYPE`` values (float64 is the bit-exact default)."""

_active: Optional[np.dtype] = None


def resolve_dtype() -> np.dtype:
    """Read ``REPRO_DTYPE`` from the environment (uncached)."""
    raw = (knobs.get_str(DTYPE_ENV) or "float64").lower()
    if raw not in DTYPE_NAMES:
        raise ValueError(
            f"unknown {DTYPE_ENV} value {raw!r}; use one of {', '.join(DTYPE_NAMES)}"
        )
    return np.dtype(raw)


def active_dtype() -> np.dtype:
    """The process-wide data-path dtype (resolved once, then cached)."""
    global _active
    if _active is None:
        _active = resolve_dtype()
    return _active


def set_active_dtype(dtype: Union[str, np.dtype, None]) -> None:
    """Override the cached dtype; ``None`` re-reads the knob lazily."""
    global _active
    if dtype is None:
        _active = None
        return
    resolved = np.dtype(dtype)
    if resolved.name not in DTYPE_NAMES:
        raise ValueError(
            f"unsupported data-path dtype {resolved.name!r}; "
            f"use one of {', '.join(DTYPE_NAMES)}"
        )
    _active = resolved


def astype(x: object) -> np.ndarray:
    """``np.asarray`` at the active dtype (no copy when already right).

    This is the single conversion helper behind the former scattered
    ``np.asarray(x, dtype=float)`` call sites; ``repro.nn`` re-exports
    it as ``_astype``.
    """
    return np.asarray(x, dtype=active_dtype())


def fits_in_place(buf: np.ndarray, *operands: ArrayLike) -> bool:
    """Whether ``buf`` can take elementwise ops with ``operands`` in place.

    An in-place ufunc (``buf *= g``) casts its result back to
    ``buf.dtype`` and cannot grow ``buf``; the out-of-place form
    (``buf * g``) promotes and broadcasts.  The two give the same bits
    when ``buf`` is writable, already has the promoted dtype (not, e.g.,
    a float32 stack scaled by a ``np.float64`` gain) and each operand's
    shape is a trailing part of ``buf``'s.  Cheap enough for the
    one-sample serving path: no broadcast object is built, and the
    shapes are checked before the (slower) dtype promotion.
    """
    if not buf.flags.writeable:
        return False
    ndim = buf.ndim
    for operand in operands:
        shape = _shape(operand)
        if len(shape) > ndim or buf.shape[ndim - len(shape):] != shape:
            return False
    return np.result_type(buf, *operands) == buf.dtype


def _shape(operand: ArrayLike) -> tuple:
    """``np.shape(operand)``, without its call for arrays, numpy and Python scalars."""
    if isinstance(operand, (np.ndarray, np.generic)):
        return operand.shape
    if isinstance(operand, (bool, int, float, complex)):
        return ()
    return np.shape(operand)
