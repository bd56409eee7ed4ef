"""Robustness evaluation under non-ideal factors (Sec. 5.3 / Fig. 5).

The paper statistically evaluates each noisy condition over many
Monte-Carlo trials ("we evaluate the system performance 1,000 times
and statistically analyze the average result").  This module provides
that loop plus the robustness index used by the DSE flow: Algorithm 2
takes a robustness requirement ``gamma``; we define

    gamma = clean_metric_value / noisy_metric_value      (error-type metric)

so ``gamma`` in (0, 1] and larger is more robust (1 = noise changes
nothing).  The definition matters only as a monotone ranking — the DSE
compares candidates under the *same* metric.

Performance: :func:`evaluate_under_noise` calls the system's
``predict_trials``, which pushes a ``(trials, samples, ports)`` stack
through the crossbars in one pass (see ``docs/performance.md``).
A noise sweep (the Fig. 5 axis) loops it over the levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.device.variation import NonIdealFactors
from repro.obs import metrics as obs_metrics

__all__ = ["NoisyEvaluation", "evaluate_under_noise", "robustness_index"]

Metric = Callable[[np.ndarray, np.ndarray], float]


@dataclass(frozen=True)
class NoisyEvaluation:
    """Statistics of a metric over Monte-Carlo noise trials."""

    noise: NonIdealFactors
    trials: int
    values: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values))

    @property
    def worst(self) -> float:
        return float(np.max(self.values))


def evaluate_under_noise(
    system,
    x: np.ndarray,
    y_true: np.ndarray,
    metric: Metric,
    noise: NonIdealFactors,
    trials: int = 30,
) -> NoisyEvaluation:
    """Score a system over ``trials`` fresh noise draws.

    Each trial re-draws process variation and signal fluctuation (via
    the trial index fed to the noise object's RNG), mirroring the
    paper's 1,000-evaluation statistics at a configurable budget.

    Parameters
    ----------
    system:
        A deployed system (``MEI``/``SAAB``/``TraditionalRCS``) or any
        object exposing ``predict_trials(x, noise, trials)`` that
        returns a ``(trials, ...)`` prediction stack.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if noise.is_ideal:
        trials = 1
    stack = np.asarray(system.predict_trials(x, noise, trials))
    values = np.array([metric(stack[t], y_true) for t in range(trials)])
    obs_metrics.counter("mc_trials_evaluated").inc(trials)
    return NoisyEvaluation(noise=noise, trials=trials, values=values)


def robustness_index(clean_error: float, noisy_error: float) -> float:
    """Robustness ``gamma``: ratio of clean to noisy error, in (0, 1].

    Degenerate cases: if both errors are ~0 the system is perfectly
    robust (1.0); if only the clean error is ~0 any noise-induced
    error counts as total fragility (0.0).
    """
    if clean_error < 0 or noisy_error < 0:
        raise ValueError("error values must be non-negative")
    if noisy_error <= 1e-15:
        return 1.0
    return min(1.0, clean_error / noisy_error)
