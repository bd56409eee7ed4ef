"""Extension experiment: MEI beyond the 8-bit AD/DA baseline.

Sec. 5.2 and the paper's future work note that where MEI loses
accuracy to the AD/DA architecture (e.g. Inversek2j, whose output
LSBs change sensitively with the input), "the performance ... may be
compensated by increasing the bit requirement of MEI from 8 to 10, 12
or a higher level" — something an AD/DA interface cannot do without a
new converter design, but MEI gets by simply adding ports.

This experiment sweeps the MEI word length ``B`` and reports the
application error and the Eq. 7 cost growth, quantifying that
accuracy/cost trade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.mei import MEI, MEIConfig
from repro.core.runner import ExperimentScale, default_scale, format_table, train_config
from repro.cost.power import savings
from repro.obs.log import get_logger
from repro.workloads.registry import PAPER_TABLE1, make_benchmark

__all__ = ["BitLengthPoint", "BitLengthResult", "run_bitlength"]

_log = get_logger("experiments.bitlength")


@dataclass(frozen=True)
class BitLengthPoint:
    """One word length's accuracy and cost."""

    bits: int
    error: float
    mse: float
    area_saved: float
    power_saved: float


@dataclass
class BitLengthResult:
    benchmark: str
    points: List[BitLengthPoint] = field(default_factory=list)

    def rows(self) -> List[List[object]]:
        return [
            [p.bits, p.error, p.mse, p.area_saved, p.power_saved] for p in self.points
        ]

    def render(self) -> str:
        header = (
            f"Bit-length extension — MEI word length sweep on {self.benchmark}\n"
            "(area/power saved vs the 8-bit AD/DA baseline, Eq. 6 vs Eq. 7)\n"
        )
        return header + format_table(
            ["bits", "error", "MSE", "area saved", "power saved"], self.rows()
        )


def run_bitlength(
    name: str = "inversek2j",
    bit_lengths: Sequence[int] = (4, 6, 8, 10, 12),
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
) -> BitLengthResult:
    """Sweep the MEI interface word length on one benchmark."""
    from repro.experiments.table1 import calibrated_params

    scale = scale if scale is not None else default_scale()
    params = calibrated_params()
    bench = make_benchmark(name)
    data = bench.dataset(n_train=scale.n_train, n_test=scale.n_test, seed=seed)
    cfg = train_config(scale, seed)
    topology = bench.spec.topology
    hidden = PAPER_TABLE1[name].pruned_mei.hidden
    result = BitLengthResult(benchmark=name)
    for bits in bit_lengths:
        mei = MEI(
            MEIConfig(topology.inputs, topology.outputs, hidden, bits=bits),
            seed=seed,
        ).train(data.x_train, data.y_train, cfg)
        mei_topology = mei.topology()
        point = BitLengthPoint(
            bits=bits,
            error=bench.error_normalized(mei.predict(data.x_test), data.y_test),
            mse=mei.mse(data.x_test, data.y_test),
            area_saved=savings(
                topology, mei_topology, params["area"]
            ).saved_fraction,
            power_saved=savings(
                topology, mei_topology, params["power"]
            ).saved_fraction,
        )
        result.points.append(point)
        _log.debug(
            "bitlength point done",
            extra={"fields": {"bits": bits, "error": round(point.error, 6)}},
        )
    return result
