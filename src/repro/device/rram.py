"""RRAM device model.

Behavioural model of an HfOx-style resistive-switching device (the
paper's accuracy emulation uses the Verilog-A model of Yu et al. [9]).
A device is a passive two-port element whose resistance can be set to
any state within ``[r_on, r_off]`` (Sec. 2.1).  We keep the parameters
that matter to system-level accuracy:

* conductance bounds ``g_min = 1/r_off`` and ``g_max = 1/r_on``;
* the number of reliably distinguishable conductance levels, which
  bounds the weight precision a crossbar cell can store;
* geometry (4F^2 cross-point cell) used by the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.dtype import astype as _astype

__all__ = ["RRAMDevice", "HFOX_DEVICE"]


@dataclass(frozen=True)
class RRAMDevice:
    """Parameters of one RRAM cross-point device.

    Parameters
    ----------
    r_on, r_off:
        Low/high resistance states in ohms.
    levels:
        Number of programmable conductance levels (0 = continuous).
    feature_nm:
        Technology feature size F; a cross-point cell occupies 4F^2.
    """

    r_on: float = 1e4
    r_off: float = 1e7
    levels: int = 0
    feature_nm: float = 90.0

    def __post_init__(self) -> None:
        if self.r_on <= 0 or self.r_off <= 0:
            raise ValueError("resistances must be positive")
        if self.r_off <= self.r_on:
            raise ValueError(f"r_off ({self.r_off}) must exceed r_on ({self.r_on})")
        if self.levels < 0:
            raise ValueError(f"levels must be >= 0, got {self.levels}")
        if self.feature_nm <= 0:
            raise ValueError("feature size must be positive")

    @property
    def g_min(self) -> float:
        """Minimum conductance (high-resistance state), in siemens."""
        return 1.0 / self.r_off

    @property
    def g_max(self) -> float:
        """Maximum conductance (low-resistance state), in siemens."""
        return 1.0 / self.r_on

    @property
    def dynamic_range(self) -> float:
        """Ratio ``g_max / g_min`` (= ``r_off / r_on``)."""
        return self.r_off / self.r_on

    @property
    def cell_area_um2(self) -> float:
        """Cross-point cell footprint 4F^2 in square micrometres."""
        f_um = self.feature_nm * 1e-3
        return 4.0 * f_um * f_um

    def clip_conductance(
        self, g: np.ndarray, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Clip conductances into the device's programmable window.

        ``out`` (e.g. ``g`` itself, at the active dtype) receives the
        result in place.
        """
        return np.clip(_astype(g), self.g_min, self.g_max, out=out)

    def discretize(self, g: np.ndarray) -> np.ndarray:
        """Snap conductances to the nearest programmable level.

        With ``levels == 0`` the device is treated as continuously
        tunable ("arbitrary state within a specific range", Sec. 2.1)
        and the input is only clipped.
        """
        g = self.clip_conductance(g)
        if self.levels == 0:
            return g
        if self.levels == 1:
            return np.full_like(g, self.g_min)
        step = (self.g_max - self.g_min) / (self.levels - 1)
        return self.g_min + np.round((g - self.g_min) / step) * step

    def weight_to_conductance(self, w: np.ndarray) -> np.ndarray:
        """Map weights in ``[0, 1]`` linearly onto the conductance window."""
        w = np.clip(_astype(w), 0.0, 1.0)
        return self.g_min + w * (self.g_max - self.g_min)


HFOX_DEVICE = RRAMDevice(r_on=1e4, r_off=1e7, levels=0, feature_nm=90.0)
"""Default HfOx-style device at the paper's 90nm node [9, 17]."""
