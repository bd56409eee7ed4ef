"""Error-budget attribution: which interface stage loses the accuracy?

The paper's central claim is that accuracy in an RRAM mixed-signal
system is a *budget* spent across the interface stages — input bit
encoding (``B_I``), weight-to-conductance mapping, process variation,
signal fluctuation, IR drop, comparator offset and output truncation
(``B_O``) — and that MEI/SAAB rebalance that budget.  This module turns
the claim into an instrument.

**Counterfactual attribution** (the headline number): starting from the
fully *real* deployment, each stage in turn is swapped for its ideal
version while every other stage stays real, and the end-to-end error is
re-measured under paired seeds.  The accuracy the swap recovers,

    delta_i = err(real) - err(real with stage i idealized),

is the budget line attributed to stage ``i``.

**Leave-one-in** (the robustness cross-check): starting from the fully
*ideal* pipeline, each stage alone is made real;
``err(ideal with stage i real) - err(ideal)`` measures the stage's
damage in isolation.  When the two views disagree, stages interact.

**Additivity residual**: stage effects do not add exactly (a comparator
flips a bit only when mapping error has pushed the level near the
threshold), so the report always carries

    residual = [err(real) - err(ideal)] - sum_i delta_i

rather than hiding interaction terms inside the per-stage lines.  A
residual comparable to the largest delta means the decomposition should
be read qualitatively.

Paired seeds: all variants share one base seed, so per-trial noise
generators are identical across variants and the measured deltas are
differences of matched Monte-Carlo draws, not of independent noise.
The pairing is exact in generators; for the two stages that change how
many draws a generator serves (signal fluctuation, process variation),
the surviving source's draw *positions* shift, so those two lines carry
slightly more Monte-Carlo noise — another reason the residual is
reported instead of assumed zero.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.analog.periphery import Comparator
from repro.core.mei import MEI
from repro.core.saab import SAAB
from repro.device.variation import NonIdealFactors
from repro.metrics.signal import bit_error_rate, snr_db, weighted_bit_error
from repro.obs import metrics as obs_metrics
from repro.xbar.mapping import MappingConfig

__all__ = [
    "STAGES",
    "StageKnobs",
    "ErrorBudgetConfig",
    "StageAttribution",
    "ErrorBudgetResult",
    "attribute_error",
    "publish_metrics",
]

STAGES: Tuple[str, ...] = (
    "input_codec",
    "mapping",
    "pv",
    "signal_fluctuation",
    "ir_drop",
    "comparator_offset",
    "output_truncation",
)
"""Attributable pipeline stages, in signal-flow order."""

# Which knob realizes each stage (see StageKnobs).
_STAGE_FIELDS: Dict[str, str] = {
    "input_codec": "in_bits",
    "mapping": "exact_mapping",
    "pv": "sigma_pv",
    "signal_fluctuation": "sigma_sf",
    "ir_drop": "wire_resistance",
    "comparator_offset": "comparator_offset",
    "output_truncation": "out_bits",
}


@dataclass(frozen=True)
class StageKnobs:
    """One full setting of every attributable stage.

    The real deployment and the all-ideal pipeline are both points in
    this knob space; a counterfactual takes the real point and moves
    exactly one coordinate to its ideal value (and leave-one-in the
    converse).
    """

    in_bits: int
    out_bits: int
    exact_mapping: bool
    sigma_pv: float
    sigma_sf: float
    comparator_offset: float
    wire_resistance: float

    def substituting(self, stage: str, source: "StageKnobs") -> "StageKnobs":
        """Copy with ``stage``'s knob taken from ``source``."""
        name = _STAGE_FIELDS[stage]
        return dataclasses.replace(self, **{name: getattr(source, name)})


@dataclass(frozen=True)
class ErrorBudgetConfig:
    """Non-ideality levels defining the "real" deployment under study.

    Defaults follow the repo's robustness anchor points: ``sigma_pv``
    matches the Table-1 robustness column
    (:data:`repro.experiments.table1.ROBUSTNESS_SIGMA_PV`),
    ``wire_resistance`` is the 90 nm per-segment value
    (:func:`repro.xbar.ir_drop.wire_resistance_for_node`).  MEI's
    digital inputs regenerate through the logic threshold, so the
    ``signal_fluctuation`` line is expected near zero — that is the
    paper's Sec. 5.3 point, measured rather than asserted.
    """

    sigma_pv: float = 0.1
    sigma_sf: float = 0.05
    comparator_offset: float = 0.05
    wire_resistance: float = 2.0  # wire_resistance_for_node(90)
    trials: int = 5
    seed: int = 0
    stages: Tuple[str, ...] = STAGES

    def __post_init__(self) -> None:
        for name in ("sigma_pv", "sigma_sf", "comparator_offset", "wire_resistance"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        unknown = set(self.stages) - set(STAGES)
        if unknown:
            raise ValueError(f"unknown stages: {sorted(unknown)}; known: {STAGES}")


@dataclass(frozen=True)
class StageAttribution:
    """One stage's budget line."""

    stage: str
    delta: float
    """Counterfactual attribution: error recovered by idealizing this
    stage alone (positive = the stage costs accuracy)."""
    counterfactual_error: float
    leave_one_in_error: float
    leave_one_in_delta: float
    """Damage this stage does alone on an otherwise ideal pipeline."""

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ErrorBudgetResult:
    """Full attribution for one deployed system on one benchmark."""

    benchmark: str
    err_real: float
    err_ideal: float
    total_gap: float
    residual: float
    stages: Tuple[StageAttribution, ...]
    bit_plane_rates: Tuple[float, ...]
    """Per-bit-plane error rate of the real deployment, MSB first —
    the Eq. 5 view of where the bit damage lands."""
    weighted_bit_error: float
    snr_db: float
    """SNR of the real decoded outputs against the ideal ones."""
    trials: int
    seed: int
    knobs: Dict[str, object]

    def as_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        out["name"] = self.benchmark
        out["stages"] = [s.as_dict() for s in self.stages]
        return out

    def metrics(self) -> Dict[str, float]:
        """Flat history metrics (``errorbudget.<bench>.*``)."""
        prefix = f"errorbudget.{self.benchmark}"
        out: Dict[str, float] = {
            f"{prefix}.err_real": self.err_real,
            f"{prefix}.err_ideal": self.err_ideal,
            f"{prefix}.total_gap": self.total_gap,
            f"{prefix}.residual": self.residual,
            f"{prefix}.weighted_bit_error": self.weighted_bit_error,
            f"{prefix}.snr_db": self.snr_db,
        }
        for stage in self.stages:
            out[f"{prefix}.stage.{stage.stage}.delta"] = stage.delta
            out[f"{prefix}.stage.{stage.stage}.leave_one_in"] = stage.leave_one_in_delta
        for k, rate in enumerate(self.bit_plane_rates):
            out[f"{prefix}.bitplane.bit{k}"] = rate
        return out


def _first_learner(system: Union[MEI, SAAB]) -> MEI:
    if isinstance(system, SAAB):
        learner = system.learners[0]
        if not isinstance(learner, MEI):
            raise TypeError(
                f"error budget requires MEI learners, got {type(learner).__name__}"
            )
        return learner
    return system


def _mei_variant(mei: MEI, knobs: StageKnobs, seed: int) -> MEI:
    """One learner redeployed at a knob point, with paired periphery."""
    base = mei.mapping_config if mei.mapping_config is not None else MappingConfig()
    mapping = (
        base
        if base.wire_resistance == knobs.wire_resistance
        else dataclasses.replace(base, wire_resistance=knobs.wire_resistance)
    )
    # Same seed at every knob point -> identical offset streams, so the
    # comparator line is measured against matched draws.
    comparator = Comparator(offset_sigma=knobs.comparator_offset, seed=seed)
    return mei.deploy_variant(
        in_bits=knobs.in_bits,
        out_bits=knobs.out_bits,
        mapping_config=mapping,
        exact_mapping=knobs.exact_mapping,
        comparator=comparator,
    )


def _variant(system: Union[MEI, SAAB], knobs: StageKnobs, seed: int) -> Union[MEI, SAAB]:
    if isinstance(system, SAAB):
        # Distinct (but knob-independent) comparator seed per learner:
        # hardware comparators are independent instances, and reusing
        # one stream across learners would correlate their flips.
        counter = itertools.count()
        return system.remapped(
            lambda learner: _mei_variant(learner, knobs, seed + 7919 * next(counter))
        )
    return _mei_variant(system, knobs, seed)


def _measure(
    variant: Union[MEI, SAAB],
    x: np.ndarray,
    y: np.ndarray,
    error_fn: Callable[[np.ndarray, np.ndarray], float],
    knobs: StageKnobs,
    seed: int,
    trials: int,
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Mean error over paired trials; also the bit and decoded stacks.

    One prediction pass per variant: the instance-owned comparator
    generator is consumed exactly once, so a variant's measurement is a
    pure function of (variant, seed, trials).
    """
    noise = NonIdealFactors(sigma_pv=knobs.sigma_pv, sigma_sf=knobs.sigma_sf, seed=seed)
    bits = variant.predict_bits_trials(x, noise, trials)
    decoded = _first_learner(variant).decode_outputs(bits)
    errors = [error_fn(decoded[t], y) for t in range(decoded.shape[0])]
    return float(np.mean(errors)), bits, decoded


def attribute_error(
    system: Union[MEI, SAAB],
    x: np.ndarray,
    y: np.ndarray,
    error_fn: Callable[[np.ndarray, np.ndarray], float],
    config: Optional[ErrorBudgetConfig] = None,
    benchmark: str = "bench",
) -> ErrorBudgetResult:
    """Decompose a deployed system's accuracy gap across its stages.

    Parameters
    ----------
    system:
        A trained :class:`~repro.core.mei.MEI` or a
        :class:`~repro.core.saab.SAAB` ensemble of MEI learners.  Its
        current pruning masks define the real ``in_bits``/``out_bits``.
    x, y:
        Evaluation set in unit-interval application values.
    error_fn:
        ``(predicted_unit, target_unit) -> float`` application error
        (e.g. ``Benchmark.error_normalized``).
    config:
        Non-ideality levels of the real deployment; defaults to
        :class:`ErrorBudgetConfig`.
    """
    config = config if config is not None else ErrorBudgetConfig()
    first = _first_learner(system)
    bits = first.bits
    real = StageKnobs(
        in_bits=first.in_bits,
        out_bits=first.out_bits,
        exact_mapping=False,
        sigma_pv=config.sigma_pv,
        sigma_sf=config.sigma_sf,
        comparator_offset=config.comparator_offset,
        wire_resistance=config.wire_resistance,
    )
    ideal = StageKnobs(
        in_bits=bits,
        out_bits=bits,
        exact_mapping=True,
        sigma_pv=0.0,
        sigma_sf=0.0,
        comparator_offset=0.0,
        wire_resistance=0.0,
    )
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    seed, trials = config.seed, config.trials

    err_real, real_bits, real_decoded = _measure(
        _variant(system, real, seed), x, y, error_fn, real, seed, trials
    )
    err_ideal, _, ideal_decoded = _measure(
        _variant(system, ideal, seed), x, y, error_fn, ideal, seed, trials
    )
    total_gap = err_real - err_ideal

    rows: List[StageAttribution] = []
    for stage in config.stages:
        counterfactual = real.substituting(stage, ideal)
        err_cf, _, _ = _measure(
            _variant(system, counterfactual, seed),
            x, y, error_fn, counterfactual, seed, trials,
        )
        leave_one_in = ideal.substituting(stage, real)
        err_loi, _, _ = _measure(
            _variant(system, leave_one_in, seed),
            x, y, error_fn, leave_one_in, seed, trials,
        )
        rows.append(
            StageAttribution(
                stage=stage,
                delta=err_real - err_cf,
                counterfactual_error=err_cf,
                leave_one_in_error=err_loi,
                leave_one_in_delta=err_loi - err_ideal,
            )
        )
    residual = total_gap - sum(row.delta for row in rows)

    # Bit-plane view of the real deployment: targets are the
    # *unmasked* encoded references, so output truncation shows up
    # as LSB-plane error instead of being defined away.
    target_bits = first.encode_targets(y)
    plane_rates = bit_error_rate(real_bits, target_bits, bits=bits)
    weighted = weighted_bit_error(plane_rates, decay=first.config.weight_decay_ratio)
    snr = snr_db(ideal_decoded, real_decoded)

    return ErrorBudgetResult(
        benchmark=benchmark,
        err_real=err_real,
        err_ideal=err_ideal,
        total_gap=total_gap,
        residual=residual,
        stages=tuple(rows),
        bit_plane_rates=tuple(float(r) for r in plane_rates),
        weighted_bit_error=weighted,
        snr_db=snr,
        trials=trials,
        seed=seed,
        knobs=dataclasses.asdict(real),
    )


def publish_metrics(result: ErrorBudgetResult) -> None:
    """Expose one result through the process-wide metrics registry.

    Gauge families (``error_budget_<bench>_*``) feed the OpenMetrics
    exposition; the two histograms aggregate stage deltas and bit-plane
    rates across benchmarks for the registry's quantile views.
    """
    prefix = f"error_budget_{result.benchmark}"
    obs_metrics.gauge(f"{prefix}_err_real").set(result.err_real)
    obs_metrics.gauge(f"{prefix}_err_ideal").set(result.err_ideal)
    obs_metrics.gauge(f"{prefix}_total_gap").set(result.total_gap)
    obs_metrics.gauge(f"{prefix}_residual").set(result.residual)
    for stage in result.stages:
        obs_metrics.gauge(f"{prefix}_{stage.stage}_delta").set(stage.delta)
        obs_metrics.histogram("error_budget_stage_delta").observe(stage.delta)
    for k, rate in enumerate(result.bit_plane_rates):
        obs_metrics.gauge(f"{prefix}_bitplane_{k}_error_rate").set(rate)
        obs_metrics.histogram("error_budget_bitplane_error_rate").observe(rate)
