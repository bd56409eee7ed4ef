"""RRAM crossbar simulators: behavioural (Eq. 1-2) and MNA IR-drop."""

from repro.xbar.compensation import CompensationReport, compensate_ir_drop, effective_coefficients
from repro.xbar.crossbar import Crossbar, coefficients_from_conductance, sinh_nonlinearity
from repro.xbar.ir_drop import IRDropPoint, sweep_ir_drop, wire_resistance_for_node
from repro.xbar.mapping import (
    DifferentialCrossbar,
    MappingConfig,
    map_matrix,
    solve_conductances,
)
from repro.xbar.mna import MNACrossbar
from repro.xbar.redundancy import RemapReport, remap_spare_columns
from repro.xbar.tiling import TiledDifferentialCrossbar

__all__ = [
    "Crossbar",
    "coefficients_from_conductance",
    "sinh_nonlinearity",
    "CompensationReport",
    "compensate_ir_drop",
    "effective_coefficients",
    "DifferentialCrossbar",
    "MappingConfig",
    "map_matrix",
    "solve_conductances",
    "MNACrossbar",
    "RemapReport",
    "remap_spare_columns",
    "TiledDifferentialCrossbar",
    "IRDropPoint",
    "sweep_ir_drop",
    "wire_resistance_for_node",
]
