"""Fig. 5: system error under process variation and signal fluctuation.

The paper sweeps lognormal noise levels for the two non-ideal factors
(Sec. 5.3) and compares four systems on three representative
benchmarks (Inversek2j, JPEG, Sobel — "enough to reflect all the
simulation results"):

* the traditional AD/DA RCS;
* a single MEI;
* MEI + SAAB (ensemble of K learners, noise-aware boosting);
* a single MEI with a K-times wider hidden layer.

Shape targets: error grows with sigma everywhere; SAAB and the wider
hidden layer both flatten the curve (which one wins is benchmark-
dependent — the reason Algorithm 2 keeps both, Lines 18-19); MEI is
markedly more robust to *signal fluctuation* than the AD/DA
architecture because its inputs are discrete 0/1 levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.mei import MEI, MEIConfig
from repro.core.rcs import TraditionalRCS
from repro.core.runner import (
    ExperimentScale,
    default_scale,
    train_config,
    train_samples_for,
)
from repro.core.saab import SAAB, SAABConfig
from repro.device.variation import NonIdealFactors
from repro.metrics.robustness import evaluate_under_noise
from repro.obs.log import get_logger
from repro.workloads.registry import PAPER_TABLE1, make_benchmark

__all__ = ["Fig5Curve", "Fig5Result", "run_fig5"]

_log = get_logger("experiments.fig5")

DEFAULT_BENCHMARKS = ("inversek2j", "jpeg", "sobel")
DEFAULT_SIGMAS = (0.0, 0.05, 0.1, 0.2)


@dataclass
class Fig5Curve:
    """Mean error vs sigma for one (benchmark, system, noise type)."""

    benchmark: str
    system: str
    noise_type: str
    sigmas: List[float] = field(default_factory=list)
    errors: List[float] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe structured curve (archived by the bench harness)."""
        return {
            "name": f"{self.benchmark}.{self.system}.{self.noise_type}",
            "benchmark": self.benchmark,
            "system": self.system,
            "noise_type": self.noise_type,
            "sigmas": list(self.sigmas),
            "errors": list(self.errors),
        }


@dataclass
class Fig5Result:
    curves: List[Fig5Curve] = field(default_factory=list)

    def row_dicts(self) -> List[Dict[str, object]]:
        """Structured curves for JSON archiving."""
        return [c.as_dict() for c in self.curves]

    def metrics(self) -> Dict[str, float]:
        """Flat ``fig5.<bench>.<system>.<noise>.s<sigma>`` error map."""
        out: Dict[str, float] = {}
        for c in self.curves:
            for sigma, error in zip(c.sigmas, c.errors):
                key = f"fig5.{c.benchmark}.{c.system}.{c.noise_type}.s{sigma:g}"
                out[key] = float(error)
        return out

    def curve(self, benchmark: str, system: str, noise_type: str) -> Fig5Curve:
        for c in self.curves:
            if (c.benchmark, c.system, c.noise_type) == (benchmark, system, noise_type):
                return c
        raise KeyError(f"no curve for ({benchmark}, {system}, {noise_type})")

    def render(self) -> str:
        lines = ["Fig. 5 — error under noise sweeps"]
        for c in self.curves:
            pts = "  ".join(f"s={s:.2f}:{e:.4f}" for s, e in zip(c.sigmas, c.errors))
            lines.append(f"{c.benchmark:<11} {c.system:<10} {c.noise_type:<3} {pts}")
        return "\n".join(lines)


def _noise(noise_type: str, sigma: float, seed: int) -> NonIdealFactors:
    if noise_type == "pv":
        return NonIdealFactors(sigma_pv=sigma, seed=seed)
    if noise_type == "sf":
        return NonIdealFactors(sigma_sf=sigma, seed=seed)
    raise ValueError(f"unknown noise type {noise_type!r}")


def _fig5_benchmark(args) -> List[Fig5Curve]:
    """All of one benchmark's curves (picklable sweep task).

    Each system's noise sweep goes through the batched
    ``predict_trials`` path: all Monte-Carlo trials of a (system,
    sigma) point run as one stacked crossbar pass, bit-identical to
    the serial per-trial loop.
    """
    name, sigmas, scale, seed, k = args
    bench = make_benchmark(name)
    paper = PAPER_TABLE1[name]
    data = bench.dataset(
        n_train=train_samples_for(name, scale), n_test=scale.n_test, seed=seed
    )
    cfg = train_config(scale, seed)
    topology = bench.spec.topology
    hidden = paper.pruned_mei.hidden

    mei_config = MEIConfig(topology.inputs, topology.outputs, hidden, topology.bits)
    wide_config = MEIConfig(
        topology.inputs, topology.outputs, hidden * k, topology.bits
    )

    systems = {
        "adda": TraditionalRCS(topology, seed=seed).train(
            data.x_train, data.y_train, cfg
        ),
        "mei": MEI(mei_config, seed=seed).train(data.x_train, data.y_train, cfg),
        "saab": SAAB(
            lambda i: MEI(mei_config, seed=seed + 1 + i),
            SAABConfig(
                n_learners=k,
                compare_bits=5,
                noise=NonIdealFactors(sigma_pv=0.05, sigma_sf=0.05, seed=seed),
                seed=seed,
            ),
        ).train(data.x_train, data.y_train, cfg),
        "wide": MEI(wide_config, seed=seed).train(data.x_train, data.y_train, cfg),
    }

    metric = bench.error_normalized
    curves: List[Fig5Curve] = []
    for system_name, system in systems.items():
        for noise_type in ("pv", "sf"):
            curve = Fig5Curve(
                benchmark=name, system=system_name, noise_type=noise_type
            )
            for sigma in sigmas:
                noise = _noise(noise_type, float(sigma), seed + 99)
                evaluation = evaluate_under_noise(
                    system,
                    data.x_test,
                    data.y_test,
                    metric,
                    noise,
                    trials=scale.noise_trials,
                )
                curve.sigmas.append(float(sigma))
                curve.errors.append(evaluation.mean)
            curves.append(curve)
    _log.debug(
        "fig5 benchmark done",
        extra={"fields": {"benchmark": name, "curves": len(curves)}},
    )
    return curves


def run_fig5(
    names: Sequence[str] = DEFAULT_BENCHMARKS,
    sigmas: Sequence[float] = DEFAULT_SIGMAS,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    k: int = 3,
    workers: Optional[int] = None,
) -> Fig5Result:
    """Regenerate the Fig. 5 noise sweeps.

    ``k`` is the SAAB ensemble size and the hidden-layer multiplier of
    the wider-hidden contender.

    The benchmark rows are independent; pass ``workers`` (or set
    ``REPRO_WORKERS``) to train/evaluate them concurrently with
    identical results.
    """
    from repro.parallel import get_executor

    scale = scale if scale is not None else default_scale()
    executor = get_executor(workers)
    sigmas = tuple(float(s) for s in sigmas)
    per_benchmark = executor.map(
        _fig5_benchmark, [(name, sigmas, scale, seed, k) for name in names]
    )
    result = Fig5Result()
    for curves in per_benchmark:
        result.curves.extend(curves)
    return result
