"""Area/power cost models for RCS architectures (Sec. 4.1)."""

from repro.cost.area import Topology
from repro.cost.params import LITERATURE_AREA, LITERATURE_POWER
from repro.cost.power import savings

__all__ = [
    "LITERATURE_AREA",
    "LITERATURE_POWER",
    "Topology",
    "savings",
]
