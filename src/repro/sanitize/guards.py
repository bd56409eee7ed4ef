"""Numeric guards for the runtime sanitizer.

Each guard early-returns when :func:`repro.sanitize.enabled` is false,
so a disabled sanitizer costs one cached boolean test per call site.
Guards record findings through :func:`repro.sanitize.record` instead of
raising — see the package docstring for why.
"""

from __future__ import annotations

import types

import numpy as np

__all__ = ["check_finite", "check_range"]


def _sanitize() -> types.ModuleType:
    """The package root, imported lazily (guards load during its init)."""
    import repro.sanitize as sanitize

    return sanitize


def check_finite(stage: str, name: str, array: np.ndarray) -> bool:
    """Record a finding if ``array`` contains NaN or Inf.

    Returns ``True`` when the array is clean (or the sanitizer is off),
    so call sites can gate optional recovery logic on the result.
    """
    sanitize = _sanitize()
    if not sanitize.enabled():
        return True
    values = np.asarray(array)
    if values.size == 0 or not np.issubdtype(values.dtype, np.number):
        return True
    finite = np.isfinite(values)
    if bool(finite.all()):
        return True
    bad = int(values.size - int(finite.sum()))
    nan_count = int(np.isnan(values).sum())
    sanitize.record(
        stage,
        "non-finite",
        f"{name}: {bad}/{values.size} non-finite values "
        f"({nan_count} NaN, {bad - nan_count} Inf)",
        name=name,
        bad=bad,
        size=int(values.size),
    )
    return False


def check_range(
    stage: str,
    name: str,
    array: np.ndarray,
    lo: float,
    hi: float,
    rtol: float = 1e-9,
) -> bool:
    """Record a finding if any element leaves ``[lo, hi]``.

    Used for programmed conductances: after mapping, every device must
    sit inside the physical ``[g_off, g_on]`` window (a value outside
    it is not programmable on real hardware, so the simulated accuracy
    would be fiction).  ``rtol`` absorbs float round-off at the window
    edges.
    """
    sanitize = _sanitize()
    if not sanitize.enabled():
        return True
    values = np.asarray(array)
    if values.size == 0:
        return True
    slack = rtol * max(abs(lo), abs(hi), 1.0)
    outside = (values < lo - slack) | (values > hi + slack)
    if not bool(outside.any()):
        return True
    count = int(outside.sum())
    worst = float(values[outside].flat[np.argmax(np.abs(values[outside] - (lo + hi) / 2))])
    sanitize.record(
        stage,
        "range",
        f"{name}: {count}/{values.size} values outside [{lo:.4g}, {hi:.4g}] "
        f"(worst {worst:.6g})",
        name=name,
        count=count,
        lo=lo,
        hi=hi,
        worst=worst,
    )
    return False
