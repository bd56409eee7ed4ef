"""The fault-injection campaign engine.

A *campaign* sweeps a grid of stuck-at/line-failure fault points
(:class:`~repro.device.faults.FaultModel` rates x defect-map seeds)
across benchmarks, and reports three systems side by side at every
grid cell:

* ``none`` — the trained MEI with the defect map injected, no
  mitigation (the baseline accuracy loss);
* ``remap`` — the same chip after spare-column redundancy repair
  (:meth:`repro.core.deploy.AnalogMLP.repair_with_spares`);
* ``retrain`` — a fault-aware SAAB ensemble retrained on faulty chips
  (:func:`repro.robustness.mitigation.fault_aware_saab`).

Grid cells are independent and run on ``get_executor(...).map`` with
a :class:`~repro.parallel.RetryPolicy`: per-task retry, stall timeout,
crashed-worker resubmission and serial degradation, so a campaign
completes even when workers die mid-sweep — the resilience telemetry
lands in the result (and hence the run manifest) next to the accuracy
numbers.  Every row records its defect-map seeds, so any cell replays
exactly from the manifest.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.mei import MEI, MEIConfig
from repro.device.faults import FaultModel, inject_faults_analog_report
from repro.core.runner import (
    ExperimentScale,
    format_table,
    train_config,
    train_samples_for,
)
from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger
from repro.obs.trace import span
from repro.parallel.executor import ResilienceReport, RetryPolicy, get_executor
from repro.robustness.mitigation import fault_aware_saab, predicted_error
from repro.workloads.registry import BENCHMARK_NAMES, PAPER_TABLE1, make_benchmark

__all__ = [
    "FAST_CAMPAIGN_SCALE",
    "MITIGATIONS",
    "CampaignConfig",
    "CampaignRow",
    "CampaignResult",
    "run_campaign",
]

_log = get_logger("robustness.campaign")

FAST_CAMPAIGN_SCALE = ExperimentScale(
    name="fast", n_train=1000, n_test=150, epochs=120, noise_trials=1
)
"""Campaign budget sized for CI seed-matrix jobs: minutes, not hours.

Deliberately above toy budgets: under-trained weights sit in a flat
loss region where stuck-at faults barely move the output, hiding the
very effect the campaign measures.  120 epochs x 1000 samples is the
smallest budget where a 5% SAF rate visibly separates the mitigations
on the two default benchmarks."""

MITIGATIONS = ("none", "remap", "retrain")
"""Mitigation column order of every campaign table."""


@dataclass(frozen=True)
class CampaignConfig:
    """The sweep grid and mitigation knobs of one campaign.

    Parameters
    ----------
    benchmarks:
        Table 1 benchmark names to sweep.
    saf_rates:
        Total stuck-at fault rates; each splits into SA1/SA0 by
        ``sa1_fraction``.
    sa1_fraction:
        Share of the total rate that is stuck-on (SA1).
    row_failure_rate, col_failure_rate:
        Optional line-failure rates applied at every grid point.
    seeds:
        Defect-map base seeds — the statistical axis of the campaign.
    spare_columns:
        Spare-column budget per single-ended array for the ``remap``
        mitigation.
    ensemble_k:
        Learner count of the fault-aware SAAB ``retrain`` mitigation.
    compare_bits:
        SAAB's relaxed-comparison bit count (Algorithm 1, Line 6).
    """

    benchmarks: Tuple[str, ...] = ("sobel", "inversek2j")
    saf_rates: Tuple[float, ...] = (0.0, 0.05, 0.1)
    sa1_fraction: float = 0.5
    row_failure_rate: float = 0.0
    col_failure_rate: float = 0.0
    seeds: Tuple[int, ...] = (0, 1, 2)
    spare_columns: int = 4
    ensemble_k: int = 3
    compare_bits: int = 5

    def __post_init__(self) -> None:
        unknown = [b for b in self.benchmarks if b not in BENCHMARK_NAMES]
        if unknown:
            raise ValueError(f"unknown benchmarks {unknown}; known: {list(BENCHMARK_NAMES)}")
        if not self.benchmarks or not self.saf_rates or not self.seeds:
            raise ValueError("benchmarks, saf_rates and seeds must be non-empty")
        if not 0 <= self.sa1_fraction <= 1:
            raise ValueError(f"sa1_fraction must be in [0, 1], got {self.sa1_fraction}")
        for rate in self.saf_rates:
            if not 0 <= rate <= 1:
                raise ValueError(f"saf rates must be in [0, 1], got {rate}")
        if self.spare_columns < 0:
            raise ValueError(f"spare_columns must be >= 0, got {self.spare_columns}")
        if self.ensemble_k < 1:
            raise ValueError(f"ensemble_k must be >= 1, got {self.ensemble_k}")

    def fault_model(self, rate: float, seed: int) -> FaultModel:
        """The grid point's fault model (rates split, seed attached)."""
        return FaultModel(
            stuck_on_rate=rate * self.sa1_fraction,
            stuck_off_rate=rate * (1.0 - self.sa1_fraction),
            row_failure_rate=self.row_failure_rate,
            col_failure_rate=self.col_failure_rate,
            seed=seed,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "benchmarks": list(self.benchmarks),
            "saf_rates": list(self.saf_rates),
            "sa1_fraction": self.sa1_fraction,
            "row_failure_rate": self.row_failure_rate,
            "col_failure_rate": self.col_failure_rate,
            "seeds": list(self.seeds),
            "spare_columns": self.spare_columns,
            "ensemble_k": self.ensemble_k,
            "compare_bits": self.compare_bits,
        }


@dataclass
class CampaignRow:
    """One (benchmark, rate, defect seed, mitigation) measurement."""

    benchmark: str
    saf_rate: float
    defect_seed: int
    mitigation: str
    error: float
    clean_error: float
    faulty_cells: int = 0
    total_cells: int = 0
    spares_used: int = 0
    defect_seeds: List[Optional[int]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "saf_rate": self.saf_rate,
            "defect_seed": self.defect_seed,
            "mitigation": self.mitigation,
            "error": self.error,
            "clean_error": self.clean_error,
            "faulty_cells": self.faulty_cells,
            "total_cells": self.total_cells,
            "spares_used": self.spares_used,
            "defect_seeds": list(self.defect_seeds),
        }


@dataclass(frozen=True)
class _CampaignTask:
    """One picklable grid cell (benchmark x rate x defect seed)."""

    benchmark: str
    saf_rate: float
    defect_seed: int
    train_seed: int
    config: CampaignConfig
    scale: ExperimentScale
    chaos_marker: Optional[str] = None
    parent_pid: int = 0


def _maybe_chaos_crash(task: "_CampaignTask") -> None:
    """Forced worker crash: die hard exactly once, only in a worker.

    The marker file is created *before* the kill, so the resubmitted
    task sees it and proceeds — proving retry-after-crash end to end.
    Refuses to kill the parent process (serial/degraded execution).
    """
    if task.chaos_marker is None or os.path.exists(task.chaos_marker):
        return
    if os.getpid() == task.parent_pid:
        _log.warning(
            "chaos crash skipped: task is running in the parent process",
            extra={"fields": {"benchmark": task.benchmark}},
        )
        return
    with open(task.chaos_marker, "w", encoding="utf-8") as handle:
        handle.write(f"killed worker {os.getpid()}\n")
    _log.warning(
        "chaos: killing this worker",
        extra={"fields": {"pid": os.getpid(), "benchmark": task.benchmark}},
    )
    os.kill(os.getpid(), signal.SIGKILL)


def _campaign_cell(task: "_CampaignTask") -> List[CampaignRow]:
    """Train, injure, mitigate and measure one grid cell."""
    _maybe_chaos_crash(task)
    config = task.config
    bench = make_benchmark(task.benchmark)
    data = bench.dataset(
        n_train=train_samples_for(task.benchmark, task.scale),
        n_test=task.scale.n_test,
        seed=task.train_seed,
    )
    cfg = train_config(task.scale, task.train_seed)
    topology = bench.spec.topology
    hidden = PAPER_TABLE1[task.benchmark].pruned_mei.hidden
    mei_config = MEIConfig(topology.inputs, topology.outputs, hidden, topology.bits)
    metric = bench.error_normalized
    model = config.fault_model(task.saf_rate, task.defect_seed)
    with span(
        "campaign_cell", benchmark=task.benchmark, saf_rate=task.saf_rate,
        defect_seed=task.defect_seed,
    ) as sp:
        mei = MEI(mei_config, seed=task.train_seed).train(
            data.x_train, data.y_train, cfg
        )
        clean = predicted_error(mei, data.x_test, data.y_test, metric)

        snapshot = mei.analog.conductance_snapshot()
        injection = inject_faults_analog_report(mei.analog, model)
        error_none = predicted_error(mei, data.x_test, data.y_test, metric)

        repairs = mei.analog.repair_with_spares(
            injection.defect_maps, snapshot, config.spare_columns
        )
        error_remap = predicted_error(mei, data.x_test, data.y_test, metric)
        spares_used = sum(r.spares_used for r in repairs)

        saab = fault_aware_saab(
            mei_config, model, config.ensemble_k,
            seed=task.train_seed, compare_bits=config.compare_bits,
        ).train(data.x_train, data.y_train, cfg)
        error_retrain = predicted_error(saab, data.x_test, data.y_test, metric)
        retrain_seeds: List[Optional[int]] = []
        for learner in saab.learners:
            chip_injection = getattr(learner, "last_injection", None)
            if chip_injection is not None:
                retrain_seeds.append(chip_injection.model.seed)
        sp.set(clean=clean, none=error_none, remap=error_remap, retrain=error_retrain)
    obs_metrics.counter("campaign_cells").inc()

    def row(mitigation: str, error: float, spares: int,
            seeds: List[Optional[int]]) -> CampaignRow:
        return CampaignRow(
            benchmark=task.benchmark,
            saf_rate=task.saf_rate,
            defect_seed=task.defect_seed,
            mitigation=mitigation,
            error=error,
            clean_error=clean,
            faulty_cells=injection.faulty_cells,
            total_cells=injection.total_cells,
            spares_used=spares,
            defect_seeds=seeds,
        )

    return [
        row("none", error_none, 0, list(injection.array_seeds)),
        row("remap", error_remap, spares_used, list(injection.array_seeds)),
        row("retrain", error_retrain, 0, retrain_seeds),
    ]


@dataclass
class CampaignResult:
    """All campaign rows plus the resilience telemetry behind them."""

    config: CampaignConfig
    scale: ExperimentScale
    rows: List[CampaignRow] = field(default_factory=list)
    resilience: Optional[ResilienceReport] = None

    def mean_error(self, benchmark: str, rate: float, mitigation: str) -> float:
        values = [
            r.error for r in self.rows
            if (r.benchmark, r.mitigation) == (benchmark, mitigation)
            and r.saf_rate == rate
        ]
        if not values:
            raise KeyError(f"no rows for ({benchmark}, {rate}, {mitigation})")
        return float(sum(values) / len(values))

    def recovery(self, benchmark: str, rate: float, mitigation: str) -> float:
        """Fraction of the fault-induced error recovered by a mitigation.

        ``1.0`` = back to the clean error, ``0.0`` = no better than
        unmitigated, negative = worse than unmitigated.  Cells whose
        faults cost nothing report ``0.0``.
        """
        none = self.mean_error(benchmark, rate, "none")
        cleans = [r.clean_error for r in self.rows
                  if r.benchmark == benchmark and r.saf_rate == rate]
        clean = float(sum(cleans) / max(1, len(cleans)))
        loss = none - clean
        if loss <= 1e-12:
            return 0.0
        return float((none - self.mean_error(benchmark, rate, mitigation)) / loss)

    def mitigation_table(self) -> List[Dict[str, object]]:
        """Seed-averaged comparison: one dict per (benchmark, rate)."""
        table: List[Dict[str, object]] = []
        for benchmark in self.config.benchmarks:
            for rate in self.config.saf_rates:
                entry: Dict[str, object] = {
                    "benchmark": benchmark,
                    "saf_rate": rate,
                    "seeds": len(self.config.seeds),
                }
                for mitigation in MITIGATIONS:
                    entry[f"error_{mitigation}"] = self.mean_error(
                        benchmark, rate, mitigation
                    )
                for mitigation in ("remap", "retrain"):
                    entry[f"recovery_{mitigation}"] = self.recovery(
                        benchmark, rate, mitigation
                    )
                table.append(entry)
        return table

    def render(self) -> str:
        headers = ["benchmark", "rate", "err none", "err remap", "err retrain",
                   "rec remap", "rec retrain"]
        rows = [
            [e["benchmark"], f"{e['saf_rate']:.2f}", e["error_none"],
             e["error_remap"], e["error_retrain"],
             e["recovery_remap"], e["recovery_retrain"]]
            for e in self.mitigation_table()
        ]
        lines = [
            "Fault-injection campaign — seed-averaged error by mitigation",
            f"(scale {self.scale.name}: {len(self.rows)} rows, "
            f"{len(self.config.seeds)} defect seeds, "
            f"{self.config.spare_columns} spare cols/array, "
            f"K={self.config.ensemble_k} retrain ensemble)",
            format_table(headers, rows),
        ]
        if self.resilience is not None:
            rep = self.resilience
            lines.append(
                f"resilience: {rep.tasks} tasks, {rep.retries} retries, "
                f"{rep.timeouts} timeouts, {rep.crashes} crashes, "
                f"degraded={rep.degraded}"
            )
        return "\n".join(lines)

    def row_dicts(self) -> List[Dict[str, object]]:
        return [r.to_dict() for r in self.rows]

    def metrics(self) -> Dict[str, float]:
        """Flat ``faults.<bench>.r<rate>.<mitigation>`` error map."""
        out: Dict[str, float] = {}
        for entry in self.mitigation_table():
            for mitigation in MITIGATIONS:
                key = (f"faults.{entry['benchmark']}."
                       f"r{entry['saf_rate']:g}.{mitigation}")
                out[key] = float(entry[f"error_{mitigation}"])  # type: ignore[arg-type]
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe payload embedded in the run manifest."""
        return {
            "config": self.config.to_dict(),
            "scale": self.scale.name,
            "mitigation_table": self.mitigation_table(),
            "rows": self.row_dicts(),
            "resilience": (
                self.resilience.to_dict() if self.resilience is not None else None
            ),
        }


def run_campaign(
    config: Optional[CampaignConfig] = None,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    workers: Optional[int] = None,
    kind: Optional[str] = None,
    policy: Optional[RetryPolicy] = None,
    chaos: bool = False,
    chaos_marker: Optional[str] = None,
) -> CampaignResult:
    """Execute a fault-injection campaign under a retry policy.

    Parameters
    ----------
    config, scale:
        The sweep grid (default :class:`CampaignConfig`) and budget
        (default :data:`FAST_CAMPAIGN_SCALE`).
    seed:
        Training seed shared by every cell, so the defect-map seeds of
        ``config.seeds`` are the only statistical axis.
    workers, kind, policy:
        Executor knobs (see :func:`repro.parallel.get_executor`); the
        policy defaults to :meth:`RetryPolicy.from_env`
        (``REPRO_TASK_TIMEOUT`` / ``REPRO_TASK_RETRIES``).
    chaos:
        Kill the first grid cell's worker (SIGKILL) on its first
        execution — a live drill proving crashed-worker resubmission.
        Requires a process pool; refuses to kill the parent.
    chaos_marker:
        Override the marker-file path the chaos drill uses (a fresh
        temp file by default).
    """
    import tempfile

    config = config if config is not None else CampaignConfig()
    scale = scale if scale is not None else FAST_CAMPAIGN_SCALE
    marker: Optional[str] = None
    if chaos:
        if chaos_marker is not None:
            marker = chaos_marker
        else:
            handle, marker = tempfile.mkstemp(prefix="repro-chaos-")
            os.close(handle)
            os.unlink(marker)
    tasks = [
        _CampaignTask(
            benchmark=benchmark,
            saf_rate=float(rate),
            defect_seed=int(defect_seed),
            train_seed=seed,
            config=config,
            scale=scale,
            chaos_marker=marker if index == 0 else None,
            parent_pid=os.getpid(),
        )
        for index, (benchmark, rate, defect_seed) in enumerate(
            (b, r, s)
            for b in config.benchmarks
            for r in config.saf_rates
            for s in config.seeds
        )
    ]
    _log.info(
        "campaign starting",
        extra={"fields": {"cells": len(tasks), "scale": scale.name,
                          "chaos": chaos, "seed": seed}},
    )
    # Progress gauges; the run manifest's metrics snapshot records them.
    obs_metrics.gauge("campaign_cells_total").set(len(tasks))
    obs_metrics.gauge("campaign_started_unixtime").set(time.time())
    with span("fault_campaign", cells=len(tasks), scale=scale.name, chaos=chaos):
        report = ResilienceReport()
        cells = get_executor(workers, kind).map(
            _campaign_cell, tasks,
            policy=policy if policy is not None else RetryPolicy.from_env(),
            report=report,
        )
    result = CampaignResult(config=config, scale=scale, resilience=report)
    for cell_rows in cells:
        result.rows.extend(cell_rows)  # type: ignore[arg-type]
    if marker is not None and os.path.exists(marker):
        os.unlink(marker)
    return result
