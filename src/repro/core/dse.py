"""Design space exploration (Sec. 4, Algorithm 2).

The flow converts a traditional ``I x H x O`` RCS into a MEI-based
architecture meeting an error requirement ``epsilon`` and a robustness
requirement ``gamma``:

1. search a proper MEI hidden-layer size by growing it until the error
   change rate (Eq. 8) falls below a threshold;
2. bound the SAAB ensemble size with Eq. 9 (``K_max = min(A_org/A_MEI,
   P_org/P_MEI)``) so the MEI system never exceeds the original AD/DA
   system's area or power;
3. if a single MEI misses the requirements, grow a SAAB ensemble one
   learner at a time; at each step also train a single wider-hidden
   MEI (``H * K``) and keep whichever is better — preferring the
   wider-hidden network on ties, since it saves ``2 (K-1) O'`` RRAM
   devices and ``(K-1) O'`` peripheral units on the output side;
4. if ``K`` exceeds ``K_max`` before the requirements hold, report
   "Mission Impossible" (the paper's literal Line 13);
5. prune interface LSBs within the error budget (Line 22).

Robustness is quantified with :func:`repro.metrics.robustness_index`
(clean error / noisy error, larger = more robust).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.mei import MEI, MEIConfig
from repro.core.pruning import prune_lsbs
from repro.core.saab import SAAB, SAABConfig
from repro.cost.area import MEITopology, Topology
from repro.cost.params import LITERATURE_AREA, LITERATURE_POWER, CostParams
from repro.cost.power import max_saab_learners, savings
from repro.device.variation import IDEAL, NonIdealFactors
from repro.metrics.robustness import evaluate_under_noise, robustness_index
from repro.nn.trainer import TrainConfig
from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger

__all__ = ["DSEConfig", "DSEResult", "explore", "search_hidden_size"]

_log = get_logger("core.dse")

MetricFn = Callable[[np.ndarray, np.ndarray], float]
"""(predicted_unit, target_unit) -> error value (smaller = better)."""


@dataclass(frozen=True)
class DSEConfig:
    """Inputs of Algorithm 2 plus engine knobs.

    Parameters
    ----------
    error_requirement:
        ``epsilon`` — maximum acceptable clean test error.
    robustness_requirement:
        ``gamma`` — minimum robustness index under ``noise``
        (0 disables the robustness constraint).
    noise:
        The non-ideal factor vector ``sigma``.
    initial_hidden:
        ``H_i`` — hidden-size search start.
    max_hidden:
        Search / widening cap (guards runaway exploration).
    change_rate_threshold:
        Eq. 8 stop threshold (the paper suggests 5%).
    compare_bits:
        ``B_C`` forwarded to SAAB.
    noise_trials:
        Monte-Carlo trials per robustness evaluation.
    bits:
        Required bit length ``B_r``.
    area_params, power_params:
        Coefficient tables for Eq. 6/7/9.
    prune:
        Run the Line-22 LSB pruning pass on the final single-MEI
        candidate.
    seed:
        Base seed for learner initialization.
    workers:
        Worker count for the hidden-size candidate ladder (None =
        ``REPRO_WORKERS`` env, default serial).  With more than one
        worker the ladder's candidates train speculatively in
        parallel; the Eq. 8 stopping walk then replays the serial
        decision, so the selected architecture is identical.
    """

    error_requirement: float
    robustness_requirement: float = 0.0
    noise: NonIdealFactors = IDEAL
    initial_hidden: int = 8
    max_hidden: int = 256
    change_rate_threshold: float = 0.05
    compare_bits: int = 5
    noise_trials: int = 5
    bits: int = 8
    area_params: CostParams = LITERATURE_AREA
    power_params: CostParams = LITERATURE_POWER
    prune: bool = True
    seed: int = 0
    workers: "int | None" = None

    def __post_init__(self) -> None:
        if self.error_requirement <= 0:
            raise ValueError("error_requirement must be positive")
        if not 0 <= self.robustness_requirement <= 1:
            raise ValueError("robustness_requirement must be in [0, 1]")
        if self.initial_hidden < 1 or self.max_hidden < self.initial_hidden:
            raise ValueError("need 1 <= initial_hidden <= max_hidden")
        if self.change_rate_threshold <= 0:
            raise ValueError("change_rate_threshold must be positive")


@dataclass
class DSEResult:
    """Output of the exploration flow."""

    status: str
    """'ok' or 'mission_impossible' (Algorithm 2, Line 13)."""
    system: object
    """The selected architecture: a :class:`MEI` or a :class:`SAAB`."""
    hidden: int
    k: int
    used_saab: bool
    topology: MEITopology
    error: float
    robustness: float
    k_max: int
    area_saved: float
    power_saved: float
    hidden_history: List[Tuple[int, float]] = field(default_factory=list)
    log: List[str] = field(default_factory=list)

    @property
    def meets_requirements(self) -> bool:
        return self.status == "ok"


def _evaluate(
    system,
    x: np.ndarray,
    y: np.ndarray,
    metric: MetricFn,
    noise: NonIdealFactors,
    trials: int,
) -> Tuple[float, float]:
    """(clean error, robustness index) of a trained system.

    The noisy statistics go through the system's batched
    ``predict_trials`` path (one stacked crossbar pass for all trials)
    — bit-identical to the serial Monte-Carlo loop under fixed seeds.
    """
    clean = metric(system.predict(x), y)
    if noise.is_ideal:
        return clean, 1.0
    noisy = evaluate_under_noise(system, x, y, metric, noise, trials).mean
    return clean, robustness_index(clean, noisy)


def _train_candidate(args) -> Tuple[MEI, float]:
    """Train and score one hidden-size candidate (picklable task)."""
    make_mei, hidden, seed, x_train, y_train, x_test, y_test, metric, train_config = args
    mei = make_mei(hidden, seed).train(x_train, y_train, train_config)
    error = float(metric(mei.predict(x_test), y_test))
    obs_metrics.counter("dse_candidates_trained").inc()
    return mei, error


def search_hidden_size(
    make_mei: Callable[[int, int], MEI],
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    metric: MetricFn,
    config: DSEConfig,
    train_config: Optional[TrainConfig] = None,
    executor=None,
) -> Tuple[MEI, int, List[Tuple[int, float]]]:
    """Algorithm 2 Line 1: grow H until Eq. 8's change rate stalls.

    ``make_mei(hidden, seed)`` builds an untrained MEI; the search
    doubles the hidden size each step (the paper allows linear or
    exponential steps).

    With a multi-worker executor (``config.workers`` /
    ``REPRO_WORKERS``) every ladder candidate trains concurrently and
    the Eq. 8 early-stopping walk replays the serial decision over the
    precomputed errors — the selected MEI, its error, and the reported
    history are identical to the serial search (candidates train
    independently under the same seed), at the price of speculative
    training beyond the stopping point.

    Returns the best trained MEI, its hidden size, and the
    (hidden, error) history.
    """
    if executor is None:
        from repro.parallel import get_executor

        executor = get_executor(config.workers)
    ladder: List[int] = []
    hidden = config.initial_hidden
    while hidden <= config.max_hidden:
        ladder.append(hidden)
        hidden *= 2

    obs_metrics.gauge("dse_ladder_size").set(len(ladder))
    if getattr(executor, "workers", 1) > 1 and len(ladder) > 1:
        tasks = [
            (make_mei, h, config.seed, x_train, y_train, x_test, y_test, metric,
             train_config)
            for h in ladder
        ]
        trained = executor.map(_train_candidate, tasks)
        candidates = ((h, mei, error) for h, (mei, error) in zip(ladder, trained))
    else:

        def _lazy():
            for h in ladder:
                mei, error = _train_candidate(
                    (make_mei, h, config.seed, x_train, y_train, x_test, y_test,
                     metric, train_config)
                )
                yield h, mei, error

        candidates = _lazy()

    history: List[Tuple[int, float]] = []
    best: Optional[MEI] = None
    best_error = np.inf
    previous_error: Optional[float] = None
    for h, mei, error in candidates:
        history.append((h, error))
        if error < best_error:
            best, best_error = mei, error
        if previous_error is not None and previous_error > 0:
            eta = abs(error - previous_error) / previous_error  # Eq. 8
            if eta < config.change_rate_threshold:
                break
        previous_error = error
    assert best is not None
    _log.debug(
        "hidden search done",
        extra={"fields": {"hidden": best.config.hidden, "history": history}},
    )
    return best, best.config.hidden, history


def explore(
    traditional: Topology,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    metric: MetricFn,
    config: DSEConfig,
    train_config: Optional[TrainConfig] = None,
) -> DSEResult:
    """Run Algorithm 2 end to end.

    ``x_*``/``y_*`` are unit-interval arrays (the workload layer's
    normalized dataset); ``metric`` scores unit-interval predictions.
    """
    log: List[str] = []

    def note(message: str) -> None:
        """DSEResult.log line, mirrored onto the structured logger."""
        log.append(message)
        _log.debug(message)

    # functools.partial of a module-level builder (not a closure) so the
    # candidate-ladder tasks can cross a process boundary.
    make_mei = functools.partial(
        _make_candidate_mei, traditional.inputs, traditional.outputs, config.bits
    )

    # Line 1: hidden size search.
    r1, hidden, history = search_hidden_size(
        make_mei, x_train, y_train, x_test, y_test, metric, config, train_config
    )
    note(f"hidden search: H={hidden}, history={history}")

    # Line 2: maximum SAAB number (Eq. 9).
    k_max = max_saab_learners(traditional, r1.topology(), config.area_params, config.power_params)
    note(f"K_max={k_max}")

    # Lines 3-4: evaluate the single learner.
    error, robustness = _evaluate(r1, x_test, y_test, metric, config.noise, config.noise_trials)
    note(f"R1: error={error:.4f}, robustness={robustness:.3f}")

    system: object = r1
    used_saab = False
    k = 1

    if error > config.error_requirement or robustness < config.robustness_requirement:
        # Lines 9-20: grow the ensemble, racing a wider single MEI.
        saab = SAAB(
            lambda i: make_mei(hidden, config.seed + 1 + i),
            SAABConfig(
                n_learners=1,
                compare_bits=config.compare_bits,
                noise=config.noise,
                seed=config.seed,
            ),
        )
        saab.extend(x_train, y_train, 1, train_config)  # alpha_1's learner
        while error > config.error_requirement or robustness < config.robustness_requirement:
            k += 1
            if k > k_max:  # Line 12-14
                return DSEResult(
                    status="mission_impossible",
                    system=system,
                    hidden=hidden,
                    k=k - 1,
                    used_saab=used_saab,
                    topology=_topology_of(system),
                    error=error,
                    robustness=robustness,
                    k_max=k_max,
                    area_saved=savings(traditional, _topology_of(system),
                                       config.area_params).saved_fraction,
                    power_saved=savings(traditional, _topology_of(system),
                                        config.power_params).saved_fraction,
                    hidden_history=history,
                    log=log + ["Mission Impossible"],
                )
            saab.extend(x_train, y_train, 1, train_config)  # Line 16
            ens_error, ens_rob = _evaluate(
                saab, x_test, y_test, metric, config.noise, config.noise_trials
            )
            # Lines 18-19: the wider-hidden single-network contender.
            wide_hidden = min(hidden * k, config.max_hidden)
            wide = make_mei(wide_hidden, config.seed).train(x_train, y_train, train_config)
            wide_error, wide_rob = _evaluate(
                wide, x_test, y_test, metric, config.noise, config.noise_trials
            )
            note(
                f"K={k}: ensemble err={ens_error:.4f}/rob={ens_rob:.3f}, "
                f"wide(H={wide_hidden}) err={wide_error:.4f}/rob={wide_rob:.3f}"
            )
            # Prefer the wider network on (near) ties: it saves
            # 2(K-1)O' devices and (K-1)O' peripheral units.
            system, error, robustness, used_saab = (
                (wide, wide_error, wide_rob, False)
                if (wide_error, -wide_rob) <= (ens_error * 1.05, -ens_rob * 0.95)
                else (saab, ens_error, ens_rob, True)
            )

    # Line 22: prune interface LSBs on a single-MEI result.
    if config.prune and isinstance(system, MEI):
        budget = max(config.error_requirement, error)
        result = prune_lsbs(
            system,
            lambda candidate: metric(candidate.predict(x_test), y_test),
            max_error=budget,
            mse=system.mse(x_test, y_test),
        )
        if result.mei is not system:
            note(
                f"pruned to in_bits={result.mei.in_bits}, out_bits={result.mei.out_bits}"
            )
        system = result.mei
        error = result.error

    topology = _topology_of(system)
    status = "ok" if (
        error <= config.error_requirement and robustness >= config.robustness_requirement
    ) else "mission_impossible"
    return DSEResult(
        status=status,
        system=system,
        hidden=hidden,
        k=k,
        used_saab=used_saab,
        topology=topology,
        error=error,
        robustness=robustness,
        k_max=k_max,
        area_saved=savings(traditional, topology, config.area_params).saved_fraction,
        power_saved=savings(traditional, topology, config.power_params).saved_fraction,
        hidden_history=history,
        log=log,
    )


def _make_candidate_mei(in_groups: int, out_groups: int, bits: int, hidden: int, seed: int) -> MEI:
    """Module-level MEI builder for picklable DSE ladder tasks."""
    return MEI(
        MEIConfig(in_groups=in_groups, out_groups=out_groups, hidden=hidden, bits=bits),
        seed=seed,
    )


def _topology_of(system) -> MEITopology:
    """Cost topology of a single MEI or a SAAB ensemble.

    An ensemble of K learners costs K crossbars/peripheries; model it
    as one MEITopology with a K-times hidden layer (exact for Eq. 7's
    linear-in-H' cost structure up to the shared-output-port savings
    the paper notes).
    """
    if isinstance(system, MEI):
        return system.topology()
    if isinstance(system, SAAB):
        base = system.learners[0].topology()
        return MEITopology(
            in_ports=base.in_ports,
            hidden=base.hidden * len(system),
            out_ports=base.out_ports,
            in_groups=base.in_groups,
            out_groups=base.out_groups,
        )
    raise TypeError(f"unsupported system type {type(system).__name__}")
