"""Experiment harnesses regenerating every table/figure of the paper."""

from repro.core.runner import (
    FULL_SCALE,
    QUICK_SCALE,
    ExperimentScale,
    default_scale,
    format_table,
    train_config,
)
from repro.experiments.bench import render_bench_entry, run_bench, write_baseline
from repro.experiments.bitlength import BitLengthPoint, BitLengthResult, run_bitlength
from repro.experiments.fig2 import Fig2Result, run_fig2
from repro.experiments.fig3 import Fig3Point, Fig3Result, run_fig3
from repro.experiments.fig4 import Fig4Result, Fig4Row, run_fig4
from repro.experiments.fig5 import Fig5Curve, Fig5Result, run_fig5
from repro.experiments.summary import REPORT_ORDER, collect_reports
from repro.experiments.table1 import (
    Table1Result,
    Table1Row,
    calibrated_params,
    run_benchmark_row,
    run_table1,
)

__all__ = [
    "ExperimentScale",
    "QUICK_SCALE",
    "FULL_SCALE",
    "default_scale",
    "train_config",
    "format_table",
    "REPORT_ORDER",
    "collect_reports",
    "run_bench",
    "write_baseline",
    "render_bench_entry",
    "BitLengthPoint",
    "BitLengthResult",
    "run_bitlength",
    "Fig2Result",
    "run_fig2",
    "Fig3Point",
    "Fig3Result",
    "run_fig3",
    "Table1Row",
    "Table1Result",
    "calibrated_params",
    "run_benchmark_row",
    "run_table1",
    "Fig4Row",
    "Fig4Result",
    "run_fig4",
    "Fig5Curve",
    "Fig5Result",
    "run_fig5",
]
