"""Fault-injection campaign driver (``python -m repro faults``).

Not a figure of the paper: the DAC'15 text treats the crossbars as
defect-free and only models the two *statistical* non-ideal factors
(Sec. 2.3).  Real RRAM arrays additionally carry hard defects —
stuck-at cells and broken lines — so this driver extends the paper's
robustness story (Fig. 5) with a stuck-at-fault campaign comparing
three deployments per fault point:

* ``none`` — the trained MEI with faults injected, unmitigated;
* ``remap`` — spare-column redundancy repair;
* ``retrain`` — fault-aware SAAB retraining on the faulty chips.

The sweep executes on the resilient executor and (by default) stages a
forced worker crash mid-campaign, so every run also exercises the
crash-resubmission path it depends on.  See ``docs/robustness.md``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.runner import FULL_SCALE, QUICK_SCALE, ExperimentScale
from repro.obs.log import get_logger
from repro.parallel.resilient import RetryPolicy
from repro.robustness.campaign import (
    FAST_CAMPAIGN_SCALE,
    CampaignConfig,
    CampaignResult,
    run_campaign,
)

__all__ = ["CAMPAIGN_SCALES", "campaign_scale", "run_fig_faults"]

_log = get_logger("experiments.fig_faults")

CAMPAIGN_SCALES = {
    "fast": FAST_CAMPAIGN_SCALE,
    "quick": QUICK_SCALE,
    "full": FULL_SCALE,
}
"""Named campaign budgets (``--scale`` on the CLI)."""


def campaign_scale(name: str) -> ExperimentScale:
    """Resolve a ``--scale`` name to its budget."""
    try:
        return CAMPAIGN_SCALES[name]
    except KeyError:
        raise ValueError(
            f"unknown campaign scale {name!r}; use one of {sorted(CAMPAIGN_SCALES)}"
        ) from None


def run_fig_faults(
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    benchmarks: Optional[Tuple[str, ...]] = None,
    saf_rates: Optional[Tuple[float, ...]] = None,
    defect_seeds: Optional[Tuple[int, ...]] = None,
    spare_columns: Optional[int] = None,
    ensemble_k: Optional[int] = None,
    workers: Optional[int] = None,
    kind: Optional[str] = None,
    policy: Optional[RetryPolicy] = None,
    chaos: bool = False,
) -> CampaignResult:
    """Run the fault campaign; return the mitigation comparison.

    Every ``None`` argument keeps the :class:`CampaignConfig` /
    :data:`FAST_CAMPAIGN_SCALE` default, so the CLI and tests override
    only what they mean to.  ``chaos=True`` SIGKILLs the first grid
    cell's worker once (process pools only) — the campaign must still
    complete via resubmission, and the resilience telemetry lands in
    the result.
    """
    defaults = CampaignConfig()
    config = CampaignConfig(
        benchmarks=benchmarks if benchmarks is not None else defaults.benchmarks,
        saf_rates=saf_rates if saf_rates is not None else defaults.saf_rates,
        seeds=defect_seeds if defect_seeds is not None else defaults.seeds,
        spare_columns=(
            spare_columns if spare_columns is not None else defaults.spare_columns
        ),
        ensemble_k=ensemble_k if ensemble_k is not None else defaults.ensemble_k,
    )
    scale = scale if scale is not None else FAST_CAMPAIGN_SCALE
    _log.info(
        "fault campaign",
        extra={"fields": {
            "benchmarks": list(config.benchmarks),
            "saf_rates": list(config.saf_rates),
            "defect_seeds": list(config.seeds),
            "scale": scale.name,
            "chaos": chaos,
        }},
    )
    return run_campaign(
        config=config,
        scale=scale,
        seed=seed,
        workers=workers,
        kind=kind,
        policy=policy,
        chaos=chaos,
    )
