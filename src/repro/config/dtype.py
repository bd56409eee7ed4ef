"""The ``REPRO_DTYPE`` knob: one floating dtype for the data path.

The numeric substrate (``repro.nn``, ``repro.xbar``, ``repro.quant``,
``repro.analog``) runs in float64 by default — every equivalence test
asserts bit-identical float64 results.  ``REPRO_DTYPE=float32`` opts
the deterministic data path into single precision, halving memory
traffic; its accuracy cost is not yet measured per benchmark (see
``docs/performance.md``).

The knob is read when a chip is programmed (``AnalogMLP``; restored
conductances are cast to the chip's dtype) or a network is built, not
per call: stages compute at their arrays' dtype and entry points
coerce inputs once, so a later switch leaves a chip unchanged.
Monte-Carlo draws stay float64; on a float32 chip the fluctuated
inputs, the PV-scaled conductances and the float64 mapping gain's
product are each rounded once.  The resolved dtype is cached per
process; tests override it with :func:`set_active_dtype`.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.config import knobs

__all__ = [
    "DTYPE_ENV",
    "DTYPE_NAMES",
    "active_dtype",
    "astype",
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

    Where a chip, network or other data-path object is built, this
    fixes its dtype; later calls follow that object's arrays.
    """
    return np.asarray(x, dtype=active_dtype())
