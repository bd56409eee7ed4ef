"""Calibrate cost coefficients against the paper's reported savings.

The paper reports per-benchmark area/power savings (Table 1) but not
the raw coefficients behind Eq. 6/7.  Given the six traditional and
pruned-MEI topologies from Table 1 plus the published saving
percentages, the coefficients are over-determined up to scale: each
benchmark contributes one linear relation

    C_MEI(params) = (1 - saved) * C_org(params).

Fixing the RRAM coefficient (the scale) leaves a 3-unknown
non-negative least-squares problem, solved with ``scipy.optimize.nnls``.
The calibrated tables let the DSE reproduce the paper's trade-off
numbers; the literature defaults in :mod:`repro.cost.params` remain
available for absolute-unit estimates.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.cost.area import MEITopology, Topology, cost_mei, cost_traditional
from repro.cost.params import CostParams

__all__ = ["fit_cost_params", "calibration_residuals"]


def _design_row(
    traditional: Topology, mei: MEITopology, saved_fraction: float, rram_unit: float
) -> Tuple[np.ndarray, float]:
    """One benchmark's linear relation in (dac, adc, periphery).

    C_MEI - (1-s) C_org = 0, i.e.
    dac*(-(1-s)I) + adc*(-(1-s)O) + periph*(H' - (1-s)H)
        = rram_unit * ((1-s)*R_org - R_mei).
    """
    keep = 1.0 - saved_fraction
    coeffs = np.array(
        [
            -keep * traditional.inputs,
            -keep * traditional.outputs,
            mei.hidden - keep * traditional.hidden,
        ]
    )
    rhs = rram_unit * (keep * traditional.rram_devices - mei.rram_devices)
    return coeffs, rhs


def fit_cost_params(
    pairs: Sequence[Tuple[Topology, MEITopology]],
    saved_fractions: Sequence[float],
    rram_unit: float = 1.0,
    metric: str = "area",
) -> CostParams:
    """Fit (dac, adc, periphery) >= 0 to reported savings by NNLS.

    Parameters
    ----------
    pairs:
        Per-benchmark (traditional, MEI) topology pairs from Table 1.
    saved_fractions:
        Reported savings as fractions in (0, 1), same order as pairs.
    rram_unit:
        The fixed RRAM coefficient setting the scale.
    metric:
        Label stored on the resulting :class:`CostParams`.

    NNLS may legitimately produce a sign flip on an individual row
    (the paper's six constraints are not exactly consistent); the fit
    minimizes the total squared residual.
    """
    if len(pairs) != len(saved_fractions):
        raise ValueError("pairs and saved_fractions must have equal length")
    if len(pairs) < 3:
        raise ValueError("need at least 3 benchmarks to constrain 3 coefficients")
    for s in saved_fractions:
        if not 0.0 < s < 1.0:
            raise ValueError(f"saved fractions must be in (0, 1), got {s}")
    if rram_unit <= 0:
        raise ValueError("rram_unit must be positive")

    design = []
    rhs = []
    for (traditional, mei), saved in zip(pairs, saved_fractions):
        row, target = _design_row(traditional, mei, saved, rram_unit)
        # Normalize each benchmark's relation by its traditional RRAM
        # term so large topologies (JPEG) don't dominate the fit.
        norm = max(traditional.rram_devices * rram_unit, 1e-12)
        design.append(row / norm)
        rhs.append(target / norm)
    from scipy.optimize import nnls  # here, not at module level: see repro.xbar.mna

    solution, _residual = nnls(np.asarray(design), np.asarray(rhs))
    dac, adc, periphery = (float(v) for v in solution)
    return CostParams(dac=dac, adc=adc, periphery=periphery, rram=rram_unit, metric=metric)


def calibration_residuals(
    pairs: Sequence[Tuple[Topology, MEITopology]],
    saved_fractions: Sequence[float],
    params: CostParams,
) -> np.ndarray:
    """Per-benchmark gap between modeled and reported saved fractions."""
    modeled = np.array(
        [
            1.0 - cost_mei(mei, params) / cost_traditional(traditional, params)
            for traditional, mei in pairs
        ]
    )
    return modeled - np.asarray(saved_fractions, dtype=float)
