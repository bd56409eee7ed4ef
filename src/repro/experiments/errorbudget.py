"""The ``python -m repro errorbudget`` driver: attribute, stamp, append.

For each benchmark the driver trains one MEI (or a SAAB ensemble of
MEI learners) exactly like the Table 1 harness — same dataset sizes,
same Adam recipe, the paper's pruned topology — and then runs the
counterfactual stage-idealization harness
(:mod:`repro.analysis.errorbudget`) over the deployed system.  The
per-benchmark attributions are:

* published as ``error_budget_*`` gauge families in the metrics
  registry (OpenMetrics exposition);
* appended to the run history as one ``kind="errorbudget"`` entry so
  :mod:`repro.obs.compare` gates attribution drift (``--kind
  errorbudget``);
* exportable as a provenance-stamped JSON payload; ``python -m repro
  report`` renders the history entry as the stacked-bar page.

Benchmarks are independent, so they fan out through
``get_executor(...).map`` under :meth:`RetryPolicy.from_env`
(``--workers`` / ``REPRO_WORKERS``).
"""

from __future__ import annotations

import dataclasses
import pathlib
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.errorbudget import (
    ErrorBudgetConfig,
    ErrorBudgetResult,
    attribute_error,
    publish_metrics,
)
from repro.core.mei import MEI, MEIConfig
from repro.core.runner import (
    ExperimentScale,
    default_scale,
    format_table,
    train_config,
    train_samples_for,
)
from repro.core.saab import SAAB, SAABConfig
from repro.device.variation import NonIdealFactors
from repro.obs import history as obs_history
from repro.obs import metrics as obs_metrics
from repro.obs import runinfo
from repro.obs.log import get_logger
from repro.parallel.executor import RetryPolicy, get_executor
from repro.workloads.registry import BENCHMARK_NAMES, PAPER_TABLE1, make_benchmark

__all__ = [
    "ErrorBudgetSuite",
    "run_benchmark_errorbudget",
    "run_errorbudget",
    "baseline_guard",
    "ERRORBUDGET_BASELINE_FILE",
]

_log = get_logger("experiments.errorbudget")

ERRORBUDGET_BASELINE_FILE = "benchmarks/errorbudget_baseline.json"
"""Committed attribution snapshot gated by ``compare --kind errorbudget``."""


@dataclass
class ErrorBudgetSuite:
    """One run's attributions across benchmarks, render/export-ready."""

    results: List[ErrorBudgetResult]
    config: ErrorBudgetConfig
    scale_name: str
    seed: int
    ensemble: int

    def metrics(self) -> Dict[str, float]:
        """Flat ``errorbudget.<bench>.*`` mapping for the run history."""
        out: Dict[str, float] = {}
        for result in self.results:
            out.update(result.metrics())
        return out

    def payload(self) -> Dict[str, object]:
        """Provenance-stamped JSON export (same header as the row exports)."""
        return {
            "provenance": runinfo.provenance_header(
                seed=self.seed,
                scale=self.scale_name,
                ensemble=self.ensemble,
                benchmarks=[r.benchmark for r in self.results],
            ),
            "config": dataclasses.asdict(self.config),
            "results": [r.as_dict() for r in self.results],
        }

    def render(self) -> str:
        """Text report: per-benchmark stage tables plus the gap line."""
        config = self.config
        lines = [
            f"Error budget — scale={self.scale_name} seed={self.seed} "
            f"trials={config.trials} ensemble={self.ensemble} "
            f"(sigma_pv={config.sigma_pv}, sigma_sf={config.sigma_sf}, "
            f"comparator_offset={config.comparator_offset}, "
            f"wire={config.wire_resistance}ohm)"
        ]
        for result in self.results:
            lines.append("")
            lines.append(
                f"{result.benchmark}: error {result.err_real:.4f} real -> "
                f"{result.err_ideal:.4f} ideal  "
                f"(gap {result.total_gap:+.4f}, residual {result.residual:+.4f}, "
                f"snr {result.snr_db:.1f} dB)"
            )
            gap = result.total_gap
            rows = [
                [
                    stage.stage,
                    f"{stage.delta:+.5f}",
                    f"{stage.delta / gap:+.0%}" if gap else "-",
                    f"{stage.leave_one_in_delta:+.5f}",
                ]
                for stage in result.stages
            ]
            lines.append(
                format_table(["stage", "delta", "share", "leave-one-in"], rows)
            )
            planes = " ".join(f"{rate:.3f}" for rate in result.bit_plane_rates)
            lines.append(
                f"bit planes MSB->LSB: {planes}  "
                f"(weighted {result.weighted_bit_error:.4f})"
            )
        return "\n".join(lines)


def run_benchmark_errorbudget(
    name: str,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    config: Optional[ErrorBudgetConfig] = None,
    ensemble: int = 1,
) -> ErrorBudgetResult:
    """Train one benchmark's MEI/SAAB system and attribute its error.

    The system is trained at full interface width and then pruned to
    the paper's Table 1 bit counts, so the ``input_codec`` and
    ``output_truncation`` budget lines measure real pruning loss (a
    network trained on pruned inputs would make the unpruned
    counterfactual out-of-distribution).
    """
    scale = scale if scale is not None else default_scale()
    config = config if config is not None else ErrorBudgetConfig()
    if ensemble < 1:
        raise ValueError(f"ensemble must be >= 1, got {ensemble}")
    bench = make_benchmark(name)
    paper = PAPER_TABLE1[name]
    topology = bench.spec.topology
    in_bits = paper.pruned_mei.in_ports // topology.inputs
    out_bits = paper.pruned_mei.out_ports // topology.outputs
    data = bench.dataset(
        n_train=train_samples_for(name, scale), n_test=scale.n_test, seed=seed
    )
    cfg = train_config(scale, seed)
    mei_config = MEIConfig(
        in_groups=topology.inputs,
        out_groups=topology.outputs,
        hidden=paper.pruned_mei.hidden,
        bits=topology.bits,
    )
    if ensemble > 1:
        saab = SAAB(
            lambda k: MEI(mei_config, seed=seed + k),
            SAABConfig(
                n_learners=ensemble,
                noise=NonIdealFactors(
                    sigma_pv=config.sigma_pv, seed=seed + 617
                ),
                seed=seed,
            ),
        ).train(data.x_train, data.y_train, cfg)
        system = saab.remapped(
            lambda learner: learner.pruned(in_bits, out_bits)
        )
    else:
        mei = MEI(mei_config, seed=seed).train(
            data.x_train, data.y_train, cfg
        )
        system = mei.pruned(in_bits, out_bits)
    result = attribute_error(
        system,
        data.x_test,
        data.y_test,
        bench.error_normalized,
        config,
        benchmark=name,
    )
    _log.info(
        "errorbudget done",
        extra={
            "fields": {
                "benchmark": name,
                "total_gap": round(result.total_gap, 6),
                "residual": round(result.residual, 6),
                "top_stage": max(result.stages, key=lambda s: s.delta).stage,
            }
        },
    )
    return result


def _bench_task(args) -> ErrorBudgetResult:
    """One benchmark (module-level so process pools can pickle it)."""
    return run_benchmark_errorbudget(*args)


def run_errorbudget(
    names: Sequence[str] = BENCHMARK_NAMES,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    config: Optional[ErrorBudgetConfig] = None,
    ensemble: int = 1,
    workers: Optional[int] = None,
    history_path: "Optional[str | pathlib.Path]" = None,
    append: bool = True,
) -> Tuple[ErrorBudgetSuite, Dict[str, object], Optional[pathlib.Path]]:
    """Run the attribution suite; append one history entry.

    Returns ``(suite, entry, history_file)``; ``append=False`` builds
    the entry without touching the store.  The suite runs on a cleared
    metrics registry, which ends up holding the published
    ``error_budget_*`` gauges for the OpenMetrics exposition.
    """
    scale = scale if scale is not None else default_scale()
    config = config if config is not None else ErrorBudgetConfig()
    names = list(names)
    obs_metrics.reset()
    mapped = get_executor(workers).map(
        _bench_task,
        [(name, scale, seed, config, ensemble) for name in names],
        policy=RetryPolicy.from_env(),
    )
    results = [r for r in mapped if r is not None]
    suite = ErrorBudgetSuite(
        results=results,
        config=config,
        scale_name=scale.name,
        seed=seed,
        ensemble=ensemble,
    )
    metrics = suite.metrics()
    for result in results:
        publish_metrics(result)
    entry = obs_history.build_entry(
        metrics,
        kind="errorbudget",
        seed=seed,
        scale=scale.name,
        benchmarks=names,
        ensemble=ensemble,
    )
    # Same provenance staleness guard as the bench driver: append the
    # entry (local iteration needs it) but say loudly that its git_sha
    # does not describe the measured code.
    state = runinfo.checkout_state(entry)
    if state is not None:
        warnings.warn(
            f"errorbudget provenance is stale: git checkout is {state}; the "
            f"recorded git_sha does not identify the measured code (commit "
            f"first, or treat this entry as throwaway)",
            RuntimeWarning,
            stacklevel=2,
        )
    target: Optional[pathlib.Path] = None
    if append:
        target = obs_history.append_entry(entry, history_path)
        _log.info(
            "errorbudget entry appended",
            extra={
                "fields": {
                    "history": str(target),
                    "metrics": len(metrics),
                    "git_sha": entry.get("git_sha"),
                }
            },
        )
    return suite, entry, target


def baseline_guard(entry: Dict[str, object], allow_dirty: bool = False) -> Optional[str]:
    """Dirty-checkout guard: refusal message, or None when clean.

    A baseline written from a dirty or unknown checkout carries a
    ``git_sha`` that does not describe the code that produced the
    numbers; the CLI refuses to promote such an entry (``bench`` and
    ``errorbudget --write-baseline``) unless the user explicitly
    overrides.
    """
    state = None if allow_dirty else runinfo.checkout_state(entry)
    if state is None:
        return None
    return (
        f"refusing --write-baseline: git checkout is {state}, so the "
        f"baseline would not be attributable to a commit; commit your "
        f"changes or pass --allow-dirty"
    )
