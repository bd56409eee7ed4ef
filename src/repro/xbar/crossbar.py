"""Behavioural RRAM crossbar model (Eq. 1-2 of the paper).

A crossbar with ``n`` input rows and ``m`` output columns computes

    V_o[j] = sum_k c[k, j] * V_i[k]                       (Eq. 1)
    c[k, j] = g[k, j] / (g_s + sum_l g[l, j])             (Eq. 2)

where ``g`` are the cell conductances and ``g_s`` the load conductance.
The paper's Eq. 2 subscripts are ambiguous about whether the
denominator sums a row or a column; Kirchhoff's current law at the
bitline (and the reference model of Hu et al., DAC'12) gives the
*column* sum, which is what we implement — the MNA solver in
:mod:`repro.xbar.mna` converges to exactly this form as wire
resistance vanishes, and the tests check that agreement.  The
column-sum term couples the cells of one output column — the mapping
layer (:mod:`repro.xbar.mapping`) inverts exactly this coupling when
it programs a target coefficient matrix.

:class:`Crossbar` is the single-array primitive; a differential pair of
them (positive/negative) realizes signed matrices, handled by
:class:`repro.xbar.mapping.DifferentialCrossbar`.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.config.dtype import astype as _astype
from repro.device.rram import HFOX_DEVICE, RRAMDevice
# Unused here; perfbench's device.sf_draw probe wraps this name in this module.
from repro.device.variation import lognormal_factor_stack  # noqa: F401
from repro.sanitize import enabled as sanitize_enabled, guards as sanitize_guards

__all__ = [
    "Crossbar",
    "coefficients_from_conductance",
    "effective_conductances",
    "one_trial_apply",
    "sinh_nonlinearity",
]


def effective_conductances(g: np.ndarray, wire_resistance: float) -> np.ndarray:
    """First-order IR-drop attenuation of programmed conductances.

    The cell at (1-indexed) position ``(i, j)`` sees roughly
    ``i + j`` wire segments of resistance ``wire_resistance`` in series
    with its own resistance ``1/g`` (down the word line from the driver,
    along the bit line to the sense load), so its effective conductance
    is ``1 / (1/g + r_path) = g / (1 + g * r_path)``.  This is the
    zeroth iteration of the full MNA solve in :mod:`repro.xbar.mna` —
    it ignores sneak-path coupling but captures the dominant trend: far
    corners fade, strong (low-resistance) cells fade hardest.  It stays
    a cheap closed form so Monte-Carlo trial stacks (``g`` may carry
    leading trial axes) pay one vectorized multiply, not an MNA solve
    per trial.  ``wire_resistance == 0`` returns ``g`` unchanged.
    """
    if wire_resistance < 0:
        raise ValueError(f"wire resistance must be >= 0, got {wire_resistance}")
    g = np.asarray(g)
    if g.ndim < 2:
        raise ValueError(f"conductance array must be at least 2-D, got shape {g.shape}")
    if wire_resistance == 0:
        return g
    rows, cols = g.shape[-2:]
    i = np.arange(1, rows + 1, dtype=g.dtype)
    j = np.arange(1, cols + 1, dtype=g.dtype)
    r_path = wire_resistance * (i[:, None] + j[None, :])
    return g / (1.0 + g * r_path)


def sinh_nonlinearity(v: np.ndarray, alpha: float) -> np.ndarray:
    """Normalized sinh I-V nonlinearity of an RRAM cell.

    Real devices conduct super-linearly with voltage,
    ``I ~ sinh(alpha * V)``; normalized so ``f(0) = 0`` and
    ``f(1) = 1``, with ``alpha -> 0`` recovering the linear model.
    MEI's 0/1 input levels land exactly on the two fixed points, so
    input-side nonlinearity distorts analog-driven (AD/DA) crossbars
    but not MEI's first layer — one more advantage of discrete levels.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    v = np.asarray(v)
    if alpha == 0:
        return v
    return np.sinh(alpha * v) / np.sinh(alpha)


def one_trial_apply(self: Any, x: np.ndarray) -> np.ndarray:
    """Every crossbar stage's ``apply``: slice ``[0]`` of a noise-free 1-trial ``apply_trials``.

    ``x`` is ``(batch, ports)`` or ``(ports,)``.
    """
    return self.apply_trials(np.atleast_2d(x)[None])[0]


def coefficients_from_conductance(g: np.ndarray, g_s: float) -> np.ndarray:
    """Compute the coefficient matrix ``c`` of Eq. 2 from conductances, at their dtype."""
    g = np.asarray(g)
    if g.ndim != 2:
        raise ValueError(f"conductance matrix must be 2-D, got shape {g.shape}")
    if np.any(g < 0):
        raise ValueError("conductances must be non-negative")
    if g_s <= 0:
        raise ValueError(f"load conductance must be positive, got {g_s}")
    col_sums = g.sum(axis=0, keepdims=True)
    return g / (g_s + col_sums)


class Crossbar:
    """One RRAM crossbar array of shape ``(rows, cols)``.

    Parameters
    ----------
    conductances:
        Programmed cell conductances in siemens, shape ``(rows, cols)``.
    g_s:
        Load conductance at each output column.
    device:
        Device model used to clip/discretize the programmed states.
    wire_resistance:
        Per-segment wire resistance in ohms; ``0`` (the default) keeps
        the ideal interconnect of Eq. 1-2, any positive value applies
        the first-order :func:`effective_conductances` attenuation to
        whatever conductances (nominal or PV-perturbed) feed Eq. 2.
    """

    _coefficients: Optional[np.ndarray]

    def __init__(
        self,
        conductances: np.ndarray,
        g_s: float,
        device: RRAMDevice = HFOX_DEVICE,
        nonlinearity: float = 0.0,
        wire_resistance: float = 0.0,
    ):
        conductances = _astype(conductances)
        if conductances.ndim != 2:
            raise ValueError(f"conductances must be 2-D, got shape {conductances.shape}")
        if g_s <= 0:
            raise ValueError(f"load conductance must be positive, got {g_s}")
        if nonlinearity < 0:
            raise ValueError(f"nonlinearity must be >= 0, got {nonlinearity}")
        if wire_resistance < 0:
            raise ValueError(f"wire resistance must be >= 0, got {wire_resistance}")
        self.device = device
        self.g_s = float(g_s)
        self.nonlinearity = float(nonlinearity)
        self.wire_resistance = float(wire_resistance)
        self.dtype = conductances.dtype
        """The data-path dtype, fixed when the array is programmed."""
        self.conductances = device.discretize(conductances)

    @property
    def conductances(self) -> np.ndarray:
        """The programmed cell conductances, read-only.

        Reprogram a chip by assigning a new array (fault injection,
        restore, spare repair and write-verify programming all do);
        the setter casts it to :attr:`dtype`, makes it read-only and
        drops the memoized :meth:`coefficients`, so none goes stale.
        """
        return self._conductances

    @conductances.setter
    def conductances(self, g: np.ndarray) -> None:
        g = np.asarray(g, dtype=self.dtype)
        g.flags.writeable = False
        self._conductances = g
        self._coefficients = None

    def __setstate__(self, state: dict) -> None:
        # A copy or unpickled chip holds fresh, writable arrays: re-freeze.
        self.__dict__.update(state)
        self.conductances = state["_conductances"]

    @property
    def rows(self) -> int:
        return self._conductances.shape[0]

    @property
    def cols(self) -> int:
        return self._conductances.shape[1]

    def coefficients(self) -> np.ndarray:
        """Effective (noise-free) coefficient matrix of Eq. 2, read-only.

        A function of the programmed conductances alone (Sec. 2.1:
        the mapping is fixed at program time), so it is computed once
        per programming, at the array's dtype, not once per inference.
        """
        c = self._coefficients
        if c is None:
            g = effective_conductances(self._conductances, self.wire_resistance)
            c = coefficients_from_conductance(g, self.g_s)
            c.flags.writeable = False
            self._coefficients = c
        return c

    def _perturbed_coefficients(self, factors: np.ndarray) -> np.ndarray:
        """Eq. 2 coefficients of a ``(trials, rows, cols)`` PV factor stack.

        Process variation perturbs the *conductances*; the coupled
        denominators of Eq. 2 are recomputed from the perturbed states,
        so PV on one cell shifts every coefficient in its column — a
        second-order effect SPICE would capture and we preserve.
        Multiply, clip to the device window, optional wire attenuation,
        then the column-sum normalization — all in the factor stack
        itself when it is writable scratch of the right dtype.
        """
        # The factors are float64 draws whatever the array's dtype: the
        # product fits in them unless they are read-only or narrower.
        if factors.flags.writeable and np.promote_types(factors.dtype, self.dtype) == factors.dtype:
            factors *= self._conductances
        else:
            factors = factors * self._conductances
        g = factors.astype(self.dtype, copy=False)
        np.clip(g, self.device.g_min, self.device.g_max, out=g)
        if self.wire_resistance > 0:
            g = effective_conductances(g, self.wire_resistance)
        denominator = g.sum(axis=-2, keepdims=True)
        denominator += self.g_s
        return np.divide(g, denominator, out=g)

    apply = one_trial_apply

    def pv_shapes(self) -> "list":
        """Conductance-array shapes, in per-trial PV draw order."""
        return [self._conductances.shape]

    def consume_pv_factors(self, chunks) -> np.ndarray:
        """Take this array's PV factor stack from an ordered iterator.

        ``chunks`` yields ``(trials,) + shape`` stacks in
        :meth:`pv_shapes` order (see
        :func:`repro.device.variation.pv_factor_stacks`, which draws a
        whole chain's PV factors with one generator call per trial and
        splits them here).
        """
        return next(chunks)

    def apply_trials(
        self,
        v_in: np.ndarray,
        pv_factors: "Optional[np.ndarray]" = None,
    ) -> np.ndarray:
        """Analog matrix-vector product over a stack of Monte-Carlo trials.

        Parameters
        ----------
        v_in:
            Input voltage stack of shape ``(trials, batch, rows)``;
            broadcasting views (e.g. ``np.broadcast_to``) are accepted.
        pv_factors:
            Optional process-variation factor stack of shape
            ``(trials, rows, cols)``, drawn by the caller
            (:func:`repro.device.variation.pv_factor_stacks`); ``None``
            computes with the programmed conductances.  The stack is
            *consumed*: a writable one is overwritten with the
            perturbed conductances and coefficients, so pass a copy to
            keep it.

        Returns
        -------
        Output voltages of shape ``(trials, batch, cols)``, computed
        with one stacked matmul.  ``v_in`` is taken at the array's
        :attr:`dtype`, as every stage of the chain hands it on.
        """
        if v_in.ndim != 3:
            raise ValueError(f"trial stack must be 3-D, got shape {v_in.shape}")
        if v_in.shape[2] != self._conductances.shape[0]:
            raise ValueError(f"input has {v_in.shape[2]} ports, crossbar has {self.rows} rows")
        if sanitize_enabled():
            # The programmed states were clipped at construction; catch
            # any post-construction drift (fault injection, manual edits)
            # that left the physical window before it silently skews Eq. 2.
            sanitize_guards.check_range(
                "crossbar", "conductances", self._conductances,
                self.device.g_min, self.device.g_max,
            )
            sanitize_guards.check_finite("crossbar", "v_in", v_in)
        if self.nonlinearity > 0:
            v_in = sinh_nonlinearity(v_in, self.nonlinearity)
        if pv_factors is None:
            c = self.coefficients()
        else:
            c = self._perturbed_coefficients(pv_factors)
        return v_in @ c
