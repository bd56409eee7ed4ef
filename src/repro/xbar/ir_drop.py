"""IR-drop studies: quantify wire-resistance error across array sizes.

The paper's future-work section calls out "reducing the IR drop for a
larger RCS under smaller technology node".  This module provides the
sweep used by the IR-drop ablation bench: for a family of array sizes
and wire resistances, it measures how far the MNA solution drifts from
the ideal crossbar model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.device.rram import HFOX_DEVICE, RRAMDevice
from repro.xbar.mna import MNACrossbar

__all__ = [
    "IRDropPoint",
    "sweep_ir_drop",
    "wire_resistance_for_node",
]

_NODE_WIRE_OHMS = {
    # Approximate per-segment wire resistance scaling with node; the
    # 90nm value anchors the paper's setup, others follow ITRS-style
    # R ~ 1/(width x thickness) scaling.
    130: 1.2,
    90: 2.0,
    65: 3.6,
    45: 7.0,
    32: 13.0,
    22: 26.0,
}


def wire_resistance_for_node(feature_nm: int) -> float:
    """Per-segment wire resistance (ohms) for a technology node."""
    try:
        return _NODE_WIRE_OHMS[feature_nm]
    except KeyError:
        raise ValueError(
            f"unknown node {feature_nm}nm; known: {sorted(_NODE_WIRE_OHMS)}"
        ) from None


@dataclass(frozen=True)
class IRDropPoint:
    """One sweep sample: array size, wire resistance, observed error."""

    size: int
    wire_resistance: float
    mean_abs_error: float
    relative_error: float


def sweep_ir_drop(
    sizes: Sequence[int],
    wire_resistances: Sequence[float],
    g_s: float = 1e-3,
    device: RRAMDevice = HFOX_DEVICE,
    n_vectors: int = 16,
    seed: int = 0,
) -> List[IRDropPoint]:
    """Measure MNA-vs-ideal output error over (size, wire R) grid.

    Conductances are drawn uniformly from the device window and inputs
    uniformly from [0, 1], giving a worst-case-ish current load.
    """
    rng = np.random.default_rng(seed)
    points: List[IRDropPoint] = []
    for size in sizes:
        if size < 2:
            raise ValueError(f"array size must be >= 2, got {size}")
        g = rng.uniform(device.g_min, device.g_max, size=(size, size))
        v = rng.uniform(0.0, 1.0, size=(n_vectors, size))
        for r_wire in wire_resistances:
            xbar = MNACrossbar(g, g_s=g_s, wire_resistance=r_wire)
            out_mna = xbar.solve(v)
            out_ideal = xbar.ideal_outputs(v)
            err = np.abs(out_mna - out_ideal)
            scale = max(float(np.mean(np.abs(out_ideal))), 1e-12)
            points.append(
                IRDropPoint(
                    size=size,
                    wire_resistance=float(r_wire),
                    mean_abs_error=float(np.mean(err)),
                    relative_error=float(np.mean(err) / scale),
                )
            )
    return points
