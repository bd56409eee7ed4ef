"""Fig. 3: architecture comparison while fitting ``f(x) = exp(-x**2)``.

The paper sweeps the hidden layer size of a ``1 x N x 1`` RCS fitting
``exp(-x**2)`` (10k train / 1k test samples in ``(0, 1)``) and
compares three architectures:

* the traditional AD/DA RCS;
* MEI trained with the plain Eq. (4) loss;
* MEI trained with the MSB-weighted Eq. (5) loss.

Shape targets: the weighted loss clearly beats the plain loss, and at
larger hidden sizes weighted MEI matches or beats the AD/DA RCS; the
accuracy saturates as the hidden layer grows (the observation that
motivates both Eq. 8's stopping rule and SAAB).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.mei import MEI, MEIConfig
from repro.core.rcs import TraditionalRCS
from repro.core.runner import ExperimentScale, default_scale, format_table, train_config
from repro.cost.area import Topology
from repro.obs.log import get_logger
from repro.workloads.expfit import ExpFitBenchmark

__all__ = ["Fig3Point", "Fig3Result", "run_fig3"]

_log = get_logger("experiments.fig3")


@dataclass(frozen=True)
class Fig3Point:
    """Errors of the three architectures at one hidden size."""

    hidden: int
    error_adda: float
    error_mei_plain: float
    error_mei_weighted: float


@dataclass
class Fig3Result:
    """The full hidden-size sweep."""

    points: List[Fig3Point] = field(default_factory=list)

    def rows(self) -> List[List[object]]:
        return [
            [p.hidden, p.error_adda, p.error_mei_plain, p.error_mei_weighted]
            for p in self.points
        ]

    def render(self) -> str:
        header = "Fig. 3 — exp(-x^2) fitting error vs hidden size\n"
        return header + format_table(
            ["hidden", "AD/DA RCS", "MEI (plain loss)", "MEI (Eq.5 loss)"], self.rows()
        )


def run_fig3(
    hidden_sizes: Sequence[int] = (2, 4, 8, 16, 32),
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
) -> Fig3Result:
    """Regenerate the Fig. 3 sweep."""
    scale = scale if scale is not None else default_scale()
    bench = ExpFitBenchmark()
    data = bench.dataset(n_train=scale.n_train, n_test=scale.n_test, seed=seed)
    cfg = train_config(scale, seed)
    result = Fig3Result()
    for hidden in hidden_sizes:
        rcs = TraditionalRCS(
            Topology(inputs=1, hidden=hidden, outputs=1), seed=seed
        ).train(data.x_train, data.y_train, cfg)
        error_adda = bench.error_normalized(rcs.predict(data.x_test), data.y_test)

        # MEI gets the same hidden budget scaled by the port ratio the
        # paper's Table 1 exhibits (MEI hidden ~2x the AD/DA hidden).
        mei_hidden = 2 * hidden
        plain = MEI(
            MEIConfig(1, 1, mei_hidden, msb_weighted=False), seed=seed
        ).train(data.x_train, data.y_train, cfg)
        weighted = MEI(
            MEIConfig(1, 1, mei_hidden, msb_weighted=True), seed=seed
        ).train(data.x_train, data.y_train, cfg)
        point = Fig3Point(
            hidden=hidden,
            error_adda=error_adda,
            error_mei_plain=bench.error_normalized(
                plain.predict(data.x_test), data.y_test
            ),
            error_mei_weighted=bench.error_normalized(
                weighted.predict(data.x_test), data.y_test
            ),
        )
        result.points.append(point)
        _log.debug(
            "fig3 point done",
            extra={
                "fields": {
                    "hidden": hidden,
                    "error_adda": round(point.error_adda, 6),
                    "error_mei_weighted": round(point.error_mei_weighted, 6),
                }
            },
        )
    return result
