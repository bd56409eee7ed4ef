"""RRAM crossbar simulators: behavioural (Eq. 1-2) and MNA IR-drop."""

from repro.xbar.compensation import compensate_ir_drop
from repro.xbar.ir_drop import wire_resistance_for_node
from repro.xbar.mna import MNACrossbar

__all__ = [
    "compensate_ir_drop",
    "MNACrossbar",
    "wire_resistance_for_node",
]
