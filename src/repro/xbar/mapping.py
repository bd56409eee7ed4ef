"""Weight-matrix to conductance mapping (differential crossbar pair).

The crossbar coefficient of Eq. 2 is non-negative and bounded, so a
signed weight matrix ``W`` is realized as the difference of two arrays
(the paper doubles the RRAM area for exactly this reason, Sec. 4.1):

    W * x  ≈  (1 / scale) * (C_pos - C_neg)^T-free form: x @ (C_pos - C_neg)

Mapping steps:

1. split ``W`` into positive and negative parts;
2. choose a scale so every column's coefficient sum stays below a
   headroom bound (Eq. 2 requires ``sum_k c[k, j] < 1``);
3. add the same *base coefficient* to every cell of both arrays so the
   smallest target stays programmable (``>= g_min``); because both
   arrays realize their targets exactly, the base cancels in the
   differential output;
4. invert Eq. 2 *exactly* per column: with column sum
   ``S_j = sum_l g[l, j]`` and target coefficients ``c``,
   ``S_j = g_s * sc_j / (1 - sc_j)`` (``sc_j`` the column's
   coefficient sum) and ``g[k, j] = c[k, j] * (g_s + S_j)``.

The periphery gain ``1 / scale`` is applied by the analog neuron stage.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.config.dtype import astype as _astype
from repro.device.rram import HFOX_DEVICE, RRAMDevice
# Unused here; perfbench's device.sf_draw probe wraps this name in this module.
from repro.device.variation import lognormal_factor_stack  # noqa: F401
from repro.obs import metrics as obs_metrics
from repro.sanitize import guards as sanitize_guards
from repro.xbar.crossbar import Crossbar, one_trial_apply

__all__ = [
    "MappingConfig",
    "solve_conductances",
    "DifferentialCrossbar",
    "ExactDifferentialCrossbar",
    "map_matrix",
    "clear_mapping_cache",
    "mapping_cache_size",
    "mapping_cache_stats",
    "MAPPING_CACHE_CAPACITY",
]


@dataclass(frozen=True)
class MappingConfig:
    """Mapping policy knobs.

    Parameters
    ----------
    g_s:
        Load conductance; sized ~10x the device ``g_max`` so the
        denominator of Eq. 2 is dominated by the load.
    row_sum_headroom:
        Upper bound on a column's total coefficient (must be < 1).
        (Named after the paper's Eq. 2 row notation; physically the
        bound applies per bitline column.)
    coefficient_ceiling:
        Largest single coefficient targeted; keeps cells below g_max.
    """

    g_s: float = 1e-3
    row_sum_headroom: float = 0.5
    coefficient_ceiling: float = 0.01
    input_nonlinearity: float = 0.0
    """Sinh I-V nonlinearity alpha applied to each crossbar's input
    voltages (0 = ideal linear cell).  Digital 0/1 drive levels are
    unaffected by construction (the sinh is normalized at 0 and 1)."""
    max_rows_per_tile: "int | None" = None
    """When set, deployments split matrices taller than this into
    row tiles whose output currents sum
    (:class:`repro.xbar.tiling.TiledDifferentialCrossbar`)."""
    wire_resistance: float = 0.0
    """Per-segment interconnect resistance in ohms applied to each
    deployed crossbar (first-order IR-drop model,
    :func:`repro.xbar.crossbar.effective_conductances`); 0 keeps the
    ideal wires of Eq. 1-2.  The naive mapping solve does *not*
    compensate for it — the attenuation lands as output error, which is
    exactly what the error-budget attribution measures."""

    def __post_init__(self) -> None:
        if self.input_nonlinearity < 0:
            raise ValueError("input_nonlinearity must be >= 0")
        if self.wire_resistance < 0:
            raise ValueError("wire_resistance must be >= 0")
        if self.max_rows_per_tile is not None and self.max_rows_per_tile < 1:
            raise ValueError("max_rows_per_tile must be >= 1 when set")
        if self.g_s <= 0:
            raise ValueError("g_s must be positive")
        if not 0 < self.row_sum_headroom < 1:
            raise ValueError("row_sum_headroom must be in (0, 1)")
        if not 0 < self.coefficient_ceiling < 1:
            raise ValueError("coefficient_ceiling must be in (0, 1)")

    def base_coefficient(self, device: RRAMDevice) -> float:
        """Smallest coefficient guaranteed programmable.

        ``c >= g_min / g_s`` implies the solved conductance
        ``c * (g_s + S_j) >= g_min`` for any column sum ``S_j >= 0``.
        """
        return device.g_min / self.g_s


def solve_conductances(coefficients: np.ndarray, g_s: float, device: RRAMDevice) -> np.ndarray:
    """Invert Eq. 2: find conductances realizing target coefficients.

    Exact where feasible; cells whose solution falls outside the device
    window are clipped (the caller's scale choice keeps this rare).
    """
    c = _astype(coefficients)
    if np.any(c < 0):
        raise ValueError("target coefficients must be non-negative")
    col_sums = c.sum(axis=0)
    if np.any(col_sums >= 1.0):
        raise ValueError("column coefficient sums must be < 1 for Eq. 2 to be invertible")
    s = g_s * col_sums / (1.0 - col_sums)
    g = c * (g_s + s)[None, :]
    return device.clip_conductance(g)


MAPPING_CACHE_CAPACITY = 256
"""Bound on the weight->conductance solution cache (LRU eviction)."""

_cache_lock = threading.Lock()
_MAPPING_CACHE: "OrderedDict[tuple, Tuple[float, np.ndarray, np.ndarray]]" = OrderedDict()


def _cache_key(
    weights: np.ndarray, config: MappingConfig, device: RRAMDevice
) -> tuple:
    digest = hashlib.blake2b(weights.tobytes(), digest_size=16).digest()
    return (digest, weights.shape, str(weights.dtype), config, device)


def clear_mapping_cache() -> None:
    """Drop every cached mapping solution (tests, memory pressure)."""
    with _cache_lock:
        _MAPPING_CACHE.clear()
        obs_metrics.gauge("mapping_cache_entries").set(0)


def mapping_cache_size() -> int:
    """Number of cached (weights, config, device) mapping solutions."""
    with _cache_lock:
        return len(_MAPPING_CACHE)


def _cache_get(key: tuple) -> "Optional[Tuple[float, np.ndarray, np.ndarray]]":
    with _cache_lock:
        cached = _MAPPING_CACHE.get(key)
        if cached is not None:
            _MAPPING_CACHE.move_to_end(key)
    return cached


def _cache_put(key: tuple, value: Tuple[float, np.ndarray, np.ndarray]) -> None:
    with _cache_lock:
        _MAPPING_CACHE[key] = value
        while len(_MAPPING_CACHE) > MAPPING_CACHE_CAPACITY:
            _MAPPING_CACHE.popitem(last=False)
        obs_metrics.gauge("mapping_cache_entries").set(len(_MAPPING_CACHE))


def mapping_cache_stats() -> Dict[str, float]:
    """Live cache effectiveness view (manifest helper).

    Hit/miss totals come from the process-wide metrics registry, so
    after a process-pool sweep they include the workers'
    lookups (shipped home with each task's metric diff).
    """
    snap = obs_metrics.snapshot()["counters"]
    hits = float(snap.get("mapping_cache_hits", 0.0))
    misses = float(snap.get("mapping_cache_misses", 0.0))
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "size": float(mapping_cache_size()),
        "hit_rate": hits / total if total else 0.0,
    }


def _choose_scale(weights: np.ndarray, config: MappingConfig, base: float) -> float:
    """Scale factor mapping weights onto feasible coefficients.

    The base coefficient added to every cell consumes part of the
    column-sum headroom, so the usable budget shrinks with the number
    of rows.
    """
    w_pos = np.maximum(weights, 0.0)
    w_neg = np.maximum(-weights, 0.0)
    max_cell = max(np.max(np.abs(weights)), 1e-12)
    max_col = max(np.max(w_pos.sum(axis=0)), np.max(w_neg.sum(axis=0)), 1e-12)
    budget = config.row_sum_headroom - base * weights.shape[0]
    if budget <= 0:
        raise ValueError(
            f"crossbar with {weights.shape[0]} rows exhausts the column-sum "
            f"headroom {config.row_sum_headroom} with base coefficient {base}; "
            "use a device with a larger on/off ratio or a larger g_s"
        )
    ceiling_budget = config.coefficient_ceiling - base
    if ceiling_budget <= 0:
        raise ValueError(
            f"base coefficient {base} consumes the whole coefficient ceiling "
            f"{config.coefficient_ceiling}; use a device with a larger on/off "
            "ratio, a larger g_s, or raise coefficient_ceiling"
        )
    return min(ceiling_budget / max_cell, budget / max_col)


class DifferentialCrossbar:
    """A positive/negative crossbar pair realizing a signed matrix.

    Parameters
    ----------
    weights:
        Target matrix of shape ``(in_dim, out_dim)``; the pair computes
        ``x @ weights`` up to the stored ``gain`` (``= 1/scale``) which
        the analog periphery restores.
    """

    def __init__(
        self,
        weights: np.ndarray,
        config: Optional[MappingConfig] = None,
        device: RRAMDevice = HFOX_DEVICE,
    ):
        weights = _astype(weights)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
        self.config = config if config is not None else MappingConfig()
        self.device = device
        # MC trials, fault campaigns and sweep repeats re-deploy the
        # same trained weights over and over; the solved mapping is a
        # pure function of (weights, config, device), so it is cached.
        # Crossbar.__init__ re-discretizes (always producing fresh
        # arrays), so cache hits share no mutable state — fault
        # injection on one deployment cannot leak into another.
        key = _cache_key(weights, self.config, device)
        cached = _cache_get(key)
        if cached is not None:
            obs_metrics.counter("mapping_cache_hits").inc()
            self.scale, g_pos, g_neg = cached
        else:
            obs_metrics.counter("mapping_cache_misses").inc()
            base = self.config.base_coefficient(device)
            self.scale = _choose_scale(weights, self.config, base)
            c_pos = np.maximum(weights, 0.0) * self.scale + base
            c_neg = np.maximum(-weights, 0.0) * self.scale + base
            g_pos = solve_conductances(c_pos, self.config.g_s, device)
            g_neg = solve_conductances(c_neg, self.config.g_s, device)
            _cache_put(key, (self.scale, g_pos, g_neg))
        # Programmability assertion: the solved states must sit inside
        # the physical [g_min, g_max] window (clip_conductance should
        # guarantee it; a finding here means the solve or the cache
        # handed back something real hardware cannot program).
        sanitize_guards.check_range(
            "mapping", "g_pos", g_pos, device.g_min, device.g_max
        )
        sanitize_guards.check_range(
            "mapping", "g_neg", g_neg, device.g_min, device.g_max
        )
        self.positive = Crossbar(
            g_pos,
            self.config.g_s,
            device,
            nonlinearity=self.config.input_nonlinearity,
            wire_resistance=self.config.wire_resistance,
        )
        self.negative = Crossbar(
            g_neg,
            self.config.g_s,
            device,
            nonlinearity=self.config.input_nonlinearity,
            wire_resistance=self.config.wire_resistance,
        )
        self.gain = 1.0 / self.scale
        """Periphery gain restoring the pre-mapping weight magnitude."""
        # A float64 gain on a float32 pair yields a float64 stack (the
        # neuron bank rounds it back); known once the pair is programmed.
        self._gain_promotes = np.result_type(self.positive.dtype, self.gain) != self.positive.dtype

    @property
    def in_dim(self) -> int:
        return self.positive.rows

    @property
    def out_dim(self) -> int:
        return self.positive.cols

    @property
    def device_count(self) -> int:
        """Total RRAM cells used (the ``2 (I+O) H`` factor of Eq. 6)."""
        return self.positive.conductances.size + self.negative.conductances.size

    apply = one_trial_apply

    def pv_shapes(self) -> "list":
        """Conductance-array shapes, in per-trial PV draw order."""
        return self.positive.pv_shapes() + self.negative.pv_shapes()

    def consume_pv_factors(self, chunks) -> "tuple":
        """Take this pair's PV factor stacks from an ordered iterator."""
        return (
            self.positive.consume_pv_factors(chunks),
            self.negative.consume_pv_factors(chunks),
        )

    def apply_trials(
        self,
        x: np.ndarray,
        pv_factors: "Optional[tuple]" = None,
    ) -> np.ndarray:
        """Monte-Carlo ``x @ W`` (gain restored) over a ``(trials, batch, in)`` stack.

        Both arrays see the same input voltages, as in hardware.
        ``pv_factors`` is the optional ``(positive, negative)`` process
        variation factor pair from :meth:`consume_pv_factors`.
        """
        if x.ndim != 3:
            raise ValueError(f"trial stack must be 3-D, got shape {x.shape}")
        pv_pos, pv_neg = pv_factors if pv_factors is not None else (None, None)
        pos = self.positive.apply_trials(x, pv_pos)
        neg = self.negative.apply_trials(x, pv_neg)
        # (pos - neg) * gain, built in pos: both are fresh apply_trials
        # outputs of one shape and dtype, so only a gain that promotes
        # the pair's dtype needs a new buffer.
        if self._gain_promotes:
            return (pos - neg) * self.gain
        pos -= neg
        pos *= self.gain
        return pos


class ExactDifferentialCrossbar:
    """An idealized mapping stage: realizes ``x @ W`` exactly.

    Drop-in stand-in for :class:`DifferentialCrossbar` used by the
    error-budget harness (:mod:`repro.analysis.errorbudget`) to measure
    what the *real* mapping chain costs — scale choice, base
    coefficient, Eq. 2 inversion, conductance discretization and wire
    attenuation all vanish, but the differential split survives so
    process variation still acts on a positive and a negative array.

    Paired-seed counterfactuals require bit-identical random streams,
    so this class has the pair's ``pv_shapes`` (positive then negative,
    each ``weights.shape``): :func:`repro.device.variation.pv_factor_stacks`
    draws the same factors for it as for the pair.  PV factors
    multiply the split weights directly — the relative-lognormal
    perturbation of :class:`repro.device.variation.NonIdealFactors`
    applied to an ideal realization.
    """

    def __init__(
        self,
        weights: np.ndarray,
        config: Optional[MappingConfig] = None,
        device: RRAMDevice = HFOX_DEVICE,
    ):
        # Copy: deployment snapshots the weights, like programming does.
        weights = _astype(weights).copy()
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
        self.config = config if config is not None else MappingConfig()
        self.device = device
        self.weights = weights
        self.w_pos = np.maximum(weights, 0.0)
        self.w_neg = np.maximum(-weights, 0.0)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def device_count(self) -> int:
        """Cells the real pair would use (area accounting stays honest)."""
        return 2 * self.weights.size

    apply = one_trial_apply

    def pv_shapes(self) -> "list":
        """Conductance-array shapes, in per-trial PV draw order."""
        return [self.weights.shape, self.weights.shape]

    def consume_pv_factors(self, chunks) -> "tuple":
        """Take the pair's PV factor stacks from an ordered iterator."""
        return (next(chunks), next(chunks))

    def apply_trials(
        self,
        x: np.ndarray,
        pv_factors: "Optional[tuple]" = None,
    ) -> np.ndarray:
        """``x @ W`` over a ``(trials, batch, in)`` stack, PV on each half.

        ``pv_factors`` is the optional ``(positive, negative)`` factor
        pair from :meth:`consume_pv_factors`.
        """
        if x.ndim != 3:
            raise ValueError(f"trial stack must be 3-D, got shape {x.shape}")
        if x.shape[2] != self.in_dim:
            raise ValueError(
                f"input has {x.shape[2]} ports, matrix has {self.in_dim} rows"
            )
        if pv_factors is None:
            return x @ self.weights
        f_pos, f_neg = pv_factors
        return x @ (self.w_pos[None] * f_pos - self.w_neg[None] * f_neg)


def map_matrix(
    weights: np.ndarray,
    config: Optional[MappingConfig] = None,
    device: RRAMDevice = HFOX_DEVICE,
) -> DifferentialCrossbar:
    """Convenience constructor for :class:`DifferentialCrossbar`."""
    return DifferentialCrossbar(weights, config=config, device=device)
