"""Fig. 2: normalized power/area breakdown of a 2x8x2 RCS with AD/DA.

The paper's motivating observation: for an 8-bit 2x8x2 RCS (the
robotics/inversek2j topology of Ref. [7]), the AD/DA interface takes
more than 85% of both area and power while the RRAM devices account
for about one percent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.runner import format_table
from repro.cost.area import Topology
from repro.cost.breakdown import Breakdown, breakdown
from repro.cost.params import LITERATURE_AREA, LITERATURE_POWER, CostParams

__all__ = ["Fig2Result", "run_fig2"]


@dataclass
class Fig2Result:
    """Area and power breakdowns for the motivating topology."""

    topology: Topology
    area: Breakdown
    power: Breakdown

    def rows(self) -> List[List[object]]:
        rows: List[List[object]] = []
        for name in ("dac", "adc", "periphery", "rram"):
            rows.append(
                [name, self.area.fractions[name], self.power.fractions[name]]
            )
        rows.append(["AD/DA total", self.area.interface_fraction, self.power.interface_fraction])
        return rows

    def render(self) -> str:
        header = (
            f"Fig. 2 — cost breakdown of a {self.topology} RCS with "
            f"{self.topology.bits}-bit AD/DA\n"
        )
        return header + format_table(["component", "area frac", "power frac"], self.rows())


def run_fig2(
    topology: Topology = Topology(inputs=2, hidden=8, outputs=2, bits=8),
    area_params: CostParams = LITERATURE_AREA,
    power_params: CostParams = LITERATURE_POWER,
) -> Fig2Result:
    """Regenerate the Fig. 2 decomposition."""
    return Fig2Result(
        topology=topology,
        area=breakdown(topology, area_params),
        power=breakdown(topology, power_params),
    )
