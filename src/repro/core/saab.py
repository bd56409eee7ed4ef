"""SAAB: Serial Array Adaptive Boosting (Sec. 3.2, Algorithm 1).

SAAB is an AdaBoost-style ensemble customized for RCS.  Differences
from textbook AdaBoost, all taken from the paper:

* the error of a learner is *relaxed* — only the most significant
  ``B_C`` bits of each output group are compared (Line 6's
  ``R_k(x, sigma)^{B_C} != y^{B_C}``), otherwise nearly every sample
  counts as "hard" and boosting collapses;
* the evaluation injects the non-ideal factors ``sigma``, so samples
  that are *sensitive to noise* get up-weighted alongside genuinely
  hard ones — this is what buys the robustness results of Fig. 5;
* the combined output is a weighted per-bit vote of the learners'
  hardened bit arrays (the hardware realization of Line 10's weighted
  voting, executable by the attached digital system).

The implementation is generic over the learner type: anything exposing
``train / predict_bits_trials / target_bits / out_groups / bits_per_group``
works, so both :class:`repro.core.mei.MEI` and
:class:`repro.core.rcs.TraditionalRCS` learners can be boosted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol

import numpy as np

from repro.config.dtype import fits_in_place
from repro.device.variation import IDEAL, NonIdealFactors, TrialSpec, trial_indices
from repro.nn.datasets import resample
from repro.nn.trainer import TrainConfig
from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger
from repro.quant.binarray import msb_match

__all__ = ["BoostableLearner", "SAABConfig", "SAAB"]

_log = get_logger("core.saab")


class BoostableLearner(Protocol):
    """Structural interface SAAB requires of a learner."""

    out_groups: int
    bits_per_group: int

    def train(self, x: np.ndarray, y: np.ndarray, config: Optional[TrainConfig] = None): ...

    def predict_bits_trials(
        self, x: np.ndarray, noise: NonIdealFactors = IDEAL, trials: TrialSpec = 1
    ) -> np.ndarray: ...

    def target_bits(self, y: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class SAABConfig:
    """Boosting hyper-parameters.

    Parameters
    ----------
    n_learners:
        Ensemble size ``K`` (bounded by Eq. 9 in the DSE flow).
    compare_bits:
        ``B_C`` — leading bits compared when judging a sample correct
        (the paper suggests 4-6 of an 8-bit array).
    noise:
        Non-ideal factors injected when evaluating each learner
        (Line 6); IDEAL reduces SAAB to plain relaxed AdaBoost.
    sample_size:
        Size of each learner's resampled training set (None = same as
        the input set); only used with ``sampling="resample"``.
    sampling:
        How the distribution ``p_n`` reaches each learner.
        ``"weighted"`` (default) trains on the full set with per-sample
        loss weights — the reweighting form of AdaBoost, equivalent in
        expectation to the paper's Line 4 but without bootstrap
        accuracy loss (visible at small sample budgets).
        ``"resample"`` draws a bootstrap set from ``p_n``, literally
        matching Line 4's "generate training samples s_k".
    seed:
        Seed for the resampling draws.
    """

    n_learners: int
    compare_bits: int = 5
    noise: NonIdealFactors = IDEAL
    sample_size: Optional[int] = None
    sampling: str = "weighted"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_learners < 1:
            raise ValueError(f"n_learners must be >= 1, got {self.n_learners}")
        if self.compare_bits < 1:
            raise ValueError(f"compare_bits must be >= 1, got {self.compare_bits}")
        if self.sampling not in ("weighted", "resample"):
            raise ValueError(
                f"sampling must be 'weighted' or 'resample', got {self.sampling!r}"
            )


@dataclass
class _BoostRound:
    """Diagnostics for one boosting round."""

    error: float
    alpha: float


class SAAB:
    """Serial Array Adaptive Boosting over RCS learners.

    Parameters
    ----------
    learner_factory:
        Callable ``k -> learner`` building the k-th untrained learner
        (use distinct seeds per ``k`` for diversity).
    config:
        Boosting hyper-parameters.
    """

    def __init__(self, learner_factory: Callable[[int], BoostableLearner], config: SAABConfig):
        self.factory = learner_factory
        self.config = config
        self.learners: List[BoostableLearner] = []
        self.alphas: List[float] = []
        self.rounds: List[_BoostRound] = []
        self._weights: Optional[np.ndarray] = None
        self._rng = np.random.default_rng(config.seed)

    # -- training (Algorithm 1) -------------------------------------------

    def train(
        self,
        x: np.ndarray,
        y: np.ndarray,
        train_config: Optional[TrainConfig] = None,
    ) -> "SAAB":
        """Run Algorithm 1 for ``config.n_learners`` rounds."""
        return self.extend(x, y, self.config.n_learners - len(self.learners), train_config)

    def extend(
        self,
        x: np.ndarray,
        y: np.ndarray,
        n_rounds: int,
        train_config: Optional[TrainConfig] = None,
    ) -> "SAAB":
        """Add ``n_rounds`` boosted learners, continuing the weight state.

        The DSE flow (Algorithm 2, Line 11's ``K++``) grows the
        ensemble one learner at a time, so the sample-weight
        distribution persists across calls.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(x) != len(y):
            raise ValueError(f"x and y lengths differ: {len(x)} vs {len(y)}")
        n = len(x)
        if self._weights is None:
            self._weights = np.full(n, 1.0 / n)  # Line 1
        elif len(self._weights) != n:
            raise ValueError("extend() must reuse the original training set")

        for _ in range(n_rounds):  # Line 2
            k = len(self.learners)
            probabilities = self._weights / self._weights.sum()  # Line 3
            learner = self.factory(k)
            if self.config.sampling == "resample":
                # Line 4 literally: bootstrap by the distribution.
                xs, ys = resample(x, y, probabilities, self.config.sample_size, self._rng)
                learner.train(xs, ys, train_config)  # Line 5
            else:
                # Reweighting form: full set, per-sample loss weights
                # normalized to mean 1 so learning rates are unchanged.
                learner.train(x, y, train_config, sample_weights=probabilities * n)

            # Line 6: relaxed, noise-aware error on the *original* set.
            predicted = learner.predict_bits_trials(x, self.config.noise, [k])[0]
            correct = msb_match(
                predicted,
                learner.target_bits(y),
                learner.bits_per_group,
                min(self.config.compare_bits, learner.bits_per_group),
            )
            error = float(np.sum(probabilities[~correct]))
            error = float(np.clip(error, 1e-10, 1.0 - 1e-10))
            alpha = 0.5 * np.log((1.0 - error) / error)  # Line 7

            if error < 0.5:  # noqa: SIM108 -- branch comments are load-bearing
                # Line 8: up-weight misclassified samples.
                self._weights = self._weights * np.where(
                    correct, np.exp(-alpha), np.exp(alpha)
                )
            else:
                # AdaBoost's assumptions break for a worse-than-chance
                # learner (the regime the paper's B_C relaxation is
                # designed to avoid): updating weights with a negative
                # alpha would *reinforce* the errors.  Standard
                # AdaBoost.M1 practice: reset the distribution and
                # keep the learner out of the vote (see predict_bits_trials).
                self._weights = np.full(n, 1.0 / n)

            self.learners.append(learner)
            self.alphas.append(alpha)
            self.rounds.append(_BoostRound(error=error, alpha=alpha))
            obs_metrics.counter("saab_rounds").inc()
            _log.debug(
                "boost round done",
                extra={"fields": {"k": k, "error": round(error, 6),
                                  "alpha": round(float(alpha), 6)}},
            )
        if n_rounds > 0 and self.boosted_rounds == 0:
            _log.warning(
                "no SAAB round boosted: the vote is an unweighted bag",
                extra={"fields": {"K": len(self.rounds),
                                  "errors": [round(r.error, 6) for r in self.rounds]}},
            )
        return self

    @property
    def is_trained(self) -> bool:
        return bool(self.learners)

    @property
    def boosted_rounds(self) -> int:
        """Rounds with ``alpha > 0``; 0 means no learner beat chance and
        the vote is an unweighted bag."""
        return sum(1 for alpha in self.alphas if alpha > 0)

    def remapped(self, transform: "Callable[[BoostableLearner], BoostableLearner]") -> "SAAB":
        """Clone with every learner passed through ``transform``.

        The boosting state — alphas, round diagnostics, sample-weight
        distribution — is copied unchanged: the ensemble was *trained*
        once, and ``transform`` only re-deploys each learner under
        different interface assumptions (e.g.
        :meth:`repro.core.mei.MEI.deploy_variant` for the error-budget
        counterfactuals).  ``self`` is left untouched.
        """
        if not self.is_trained:
            raise RuntimeError("train() must run before remapped()")
        clone = SAAB(self.factory, self.config)
        clone.learners = [transform(learner) for learner in self.learners]
        clone.alphas = list(self.alphas)
        clone.rounds = list(self.rounds)
        clone._weights = None if self._weights is None else self._weights.copy()
        return clone

    # -- inference (Line 10) -------------------------------------------------

    def predict_bits(
        self, x: np.ndarray, noise: NonIdealFactors = IDEAL, trial: int = 0
    ) -> np.ndarray:
        """Weighted per-bit vote: one-trial view of :meth:`predict_bits_trials`."""
        return self.predict_bits_trials(x, noise, [trial])[0]

    def predict_bits_trials(
        self,
        x: np.ndarray,
        noise: NonIdealFactors = IDEAL,
        trials: TrialSpec = 1,
    ) -> np.ndarray:
        """Weighted per-bit majority vote of the learners' outputs.

        Each learner runs in parallel in hardware; the digital host
        computes the alpha-weighted vote (Line 10).  Per-bit voting is
        the bitwise realization of argmax voting over code words.

        Learners with non-positive alpha (worse than chance on the
        relaxed comparison) are excluded — anti-voting a bad learner's
        bits is not meaningful at the bit level.  If every learner is
        excluded, the ensemble degrades to bagging: an unweighted
        majority vote (after an epsilon >= 0.5 round the distribution
        was reset to uniform, so the members are plain bootstrap
        learners and majority voting still masks individual failures).

        Each learner pushes all its trials through the crossbars in one
        stacked pass, learner ``k`` of ``K`` drawing trial ``t`` as
        ``t * K + k``, and the vote is taken over the whole
        ``(trials, samples, ports)`` stack at once.  Each member's bit
        stack is taken as fresh scratch (MEI's and RCS's are): it is
        scaled by its vote weight in place and accumulated into the
        first member's.
        """
        if not self.is_trained:
            raise RuntimeError("train() must run before predict_bits_trials()")
        indices = trial_indices(trials)
        n_learners = len(self.learners)
        vote_weights = np.maximum(self.alphas, 0.0)
        if vote_weights.sum() <= 0:
            vote_weights = np.ones(n_learners)
        total = vote_weights.sum()
        votes = None
        for k, (learner, weight) in enumerate(zip(self.learners, vote_weights)):
            if weight == 0.0:
                continue
            bits = learner.predict_bits_trials(
                x, noise, trials=[t * n_learners + k for t in indices]
            )
            if fits_in_place(bits, weight):
                bits *= weight
            else:
                bits = weight * bits
            if votes is None:
                votes = bits
            elif fits_in_place(votes, bits):
                votes += bits
            else:
                votes = votes + bits
        return (votes >= 0.5 * total).astype(float)

    def predict(
        self,
        x: np.ndarray,
        noise: NonIdealFactors = IDEAL,
        trial: int = 0,
    ) -> np.ndarray:
        """Voted bits decoded to unit values via the first learner."""
        return self._decode(self.predict_bits(x, noise, trial))

    def predict_trials(
        self,
        x: np.ndarray,
        noise: NonIdealFactors = IDEAL,
        trials: TrialSpec = 1,
    ) -> np.ndarray:
        """Batched ensemble prediction: ``(trials, samples, values)``."""
        return self._decode(self.predict_bits_trials(x, noise, trials))

    def _decode(self, bits: np.ndarray) -> np.ndarray:
        """Decode hard vote bits to unit values via the first learner."""
        decode = getattr(self.learners[0], "decode_outputs", None)
        if decode is not None:
            return decode(bits)
        from repro.quant.fixedpoint import FixedPointCodec

        return FixedPointCodec(self.learners[0].bits_per_group).decode(bits)

    def __len__(self) -> int:
        return len(self.learners)
