"""Non-ideal factor models: process variation and signal fluctuation.

Sec. 5.3 of the paper studies two non-ideal factors, both generated
from lognormal distributions:

* **Process variation (PV)** — the programmed RRAM conductance deviates
  from its target state.  Modeled multiplicatively:
  ``g' = g * exp(N(0, sigma_pv))``.
* **Signal fluctuation (SF)** — electrical noise on the (input)
  signals: ``v' = v * exp(N(0, sigma_sf))``.

Because MEI drives the crossbar with discrete 0/1 levels, a fluctuated
"0" stays exactly 0 (multiplicative noise cannot create signal out of
nothing) and a fluctuated "1" is re-thresholded by the receiver's noise
margin only at the *output* comparator — this is precisely why the
paper finds MEI far more robust to SF than the analog AD/DA interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.parallel.seeding import ensure_rng, fresh_rng

__all__ = [
    "NonIdealFactors",
    "lognormal_factors",
    "lognormal_factor_stack",
    "pv_factor_stacks",
    "exp_at_least_half",
    "regenerated_bit_stack",
    "trial_indices",
    "IDEAL",
]

TrialSpec = Union[int, Sequence[int]]
"""Monte-Carlo trial selector: a count ``n`` (meaning trials ``0..n-1``)
or an explicit sequence of trial indices (used e.g. by SAAB, whose
learners interleave their trial numbering)."""


def trial_indices(trials: TrialSpec) -> List[int]:
    """Normalize a trial spec into an explicit list of trial indices."""
    if isinstance(trials, (int, np.integer)):
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        return list(range(int(trials)))
    indices = [int(t) for t in trials]
    if not indices:
        raise ValueError("trial index sequence must be non-empty")
    return indices


def lognormal_factors(
    shape: "tuple | int",
    sigma: float,
    rng: "np.random.Generator | int | None" = None,
) -> np.ndarray:
    """Multiplicative lognormal factors with median 1.

    ``sigma`` is the standard deviation of the underlying normal; the
    paper sweeps it to generate "variations of different levels".
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return np.ones(shape)
    rng = ensure_rng(rng, "device.lognormal_factors")
    return rng.lognormal(mean=0.0, sigma=sigma, size=shape)


def lognormal_factor_stack(
    shape: "tuple | int",
    sigma: float,
    rngs: "Sequence[np.random.Generator]",
) -> np.ndarray:
    """Per-trial lognormal factors stacked into ``(trials,) + shape``.

    Trial ``t``'s slice is drawn from ``rngs[t]`` with the exact
    generator call :func:`lognormal_factors` makes, so the stack equals
    looping that function trial by trial — the random draws stay in
    serial order (the bit-identity requirement of the batched noise
    path) while all downstream arithmetic runs once on the stack.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    out = np.empty((len(rngs),) + shape)
    for t, rng in enumerate(rngs):
        out[t] = rng.lognormal(mean=0.0, sigma=sigma, size=shape)
    return out


def pv_factor_stacks(
    stages: Sequence,
    sigma: float,
    rngs: "Sequence[np.random.Generator]",
) -> list:
    """Process-variation factors for a chain of crossbar stages.

    Each trial draws every array's factors, in the stages' ``pv_shapes()``
    order, with ONE lognormal call on its generator (streams are
    call-size-agnostic: this equals drawing array by array).  The draw is
    split into ``(trials,) + shape`` stacks, one result per stage from
    its ``consume_pv_factors``.
    """
    shapes = [tuple(shape) for stage in stages for shape in stage.pv_shapes()]
    sizes = [math.prod(shape) for shape in shapes]
    flat = lognormal_factor_stack(sum(sizes), sigma, rngs)
    offsets = np.cumsum([0] + sizes)
    chunks = iter(
        flat[:, offsets[i]:offsets[i + 1]].reshape((len(rngs),) + shape)
        for i, shape in enumerate(shapes)
    )
    return [stage.consume_pv_factors(chunks) for stage in stages]


_LOG_HALF = math.log(0.5)
_EXACT_BAND = 1e-9
"""Half-width around ``log(0.5)`` inside which ``exp`` is evaluated.

Outside it ``exp(x)`` sits at least a relative 1e-9 away from 0.5,
millions of ulps, so any faithfully rounded ``exp`` decides
``exp(x) >= 0.5`` the same way the comparison ``x >= log(0.5)`` does."""


def exp_at_least_half(x: np.ndarray) -> np.ndarray:
    """``exp(x) >= 0.5`` elementwise, bit-exact, without the exp.

    Decides by comparing ``x`` with ``log(0.5)``; the rare values within
    ``1e-9`` of it are re-decided with :func:`math.exp`, the C library
    ``exp`` that NumPy's ``Generator.lognormal`` calls, so the answer
    equals thresholding the generator's own lognormal draw.  (NumPy's
    vectorized ``np.exp`` is not a stand-in: its SIMD kernel can differ
    from the C library's in the last ulp.)
    """
    x = np.asarray(x, dtype=np.float64)
    high = x >= _LOG_HALF + _EXACT_BAND
    maybe = x >= _LOG_HALF - _EXACT_BAND
    if np.count_nonzero(maybe) != np.count_nonzero(high):
        for i in np.flatnonzero(maybe & ~high):
            high.flat[i] = math.exp(float(x.flat[i])) >= 0.5
    return high


def regenerated_bit_stack(
    base: np.ndarray,
    sigma: float,
    rngs: "Sequence[np.random.Generator]",
) -> Tuple[np.ndarray, np.ndarray]:
    """Digital 0/1 inputs after signal fluctuation and receiver regeneration.

    Returns ``(stack, which)``: trial ``t``'s regenerated bits are
    ``stack[which[t]]``, and ``stack[which]`` equals
    ``(base * lognormal_factor_stack(base.shape, sigma, rngs)
    >= 0.5).astype(float)`` bit for bit.  Each generator is consumed
    identically, but the exp is skipped: ``Generator.lognormal(0,
    sigma)`` is ``exp(0 + sigma * z)`` over the same standard normals
    ``z`` that ``standard_normal`` draws, so for a 0/1 input a "1"
    survives iff ``exp(sigma * z) >= 0.5`` (:func:`exp_at_least_half`)
    and a "0" never turns on.  Trials that came back clean (no bit
    flipped, Sec. 5.3's common case) are not materialised one by one:
    they share the slot of the first of them.  Slots keep trial order,
    so ``which`` is ``arange(trials)`` exactly when no two trials
    share one.  Inputs other than 0/1 take the multiply-and-compare
    path, one slot per trial.  ``stack`` is float64.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    base = np.asarray(base, dtype=np.float64)
    on = base != 0
    if not np.all(base[on] == 1):
        stack = base * lognormal_factor_stack(base.shape, sigma, rngs) >= 0.5
        return stack.astype(np.float64), np.arange(len(rngs))
    n_on = np.count_nonzero(on)
    stack = np.empty((len(rngs),) + base.shape)
    which = np.empty(len(rngs), dtype=np.intp)
    passes, clean_slot = 0, None
    z = np.empty(base.shape)
    for t, rng in enumerate(rngs):
        rng.standard_normal(out=z)
        z *= sigma
        high = exp_at_least_half(z)
        high &= on
        if np.count_nonzero(high) == n_on:
            if clean_slot is not None:
                which[t] = clean_slot
                continue
            clean_slot = passes
        stack[passes] = high
        which[t] = passes
        passes += 1
    return stack[:passes], which


@dataclass(frozen=True)
class NonIdealFactors:
    """The non-ideal factor vector (sigma) passed around Algorithms 1-2.

    Parameters
    ----------
    sigma_pv:
        Lognormal sigma for process variation on conductances.
    sigma_sf:
        Lognormal sigma for signal fluctuation on analog inputs.
    seed:
        Base seed so Monte-Carlo trials are reproducible.
    """

    sigma_pv: float = 0.0
    sigma_sf: float = 0.0
    seed: "int | None" = None

    def __post_init__(self) -> None:
        if self.sigma_pv < 0 or self.sigma_sf < 0:
            raise ValueError("sigmas must be non-negative")

    @property
    def is_ideal(self) -> bool:
        """True when no noise would be injected at all."""
        return self.sigma_pv == 0 and self.sigma_sf == 0

    def rng(self, trial: int = 0) -> np.random.Generator:
        """Generator for one Monte-Carlo trial."""
        if self.seed is None:
            return fresh_rng("device.NonIdealFactors")
        return np.random.default_rng(self.seed + trial)

    def rngs(self, trials: TrialSpec) -> "List[np.random.Generator]":
        """One generator per Monte-Carlo trial (the batched-noise path).

        Each generator is exactly ``self.rng(t)`` for that trial index,
        so a vectorized evaluation that consumes the generators in the
        same per-trial order as the serial loop draws bit-identical
        variation tensors.
        """
        return [self.rng(t) for t in trial_indices(trials)]

    def with_seed(self, seed: "int | None") -> "NonIdealFactors":
        """Copy with a different base seed."""
        return NonIdealFactors(self.sigma_pv, self.sigma_sf, seed)

    def idealized(self, pv: bool = False, sf: bool = False) -> "NonIdealFactors":
        """Copy with the selected noise sources switched off.

        The seed is preserved so the surviving source keeps drawing the
        same per-trial generators — the paired-seed construction of the
        error-budget counterfactuals.  (Note the caveat documented
        there: because SF draws precede PV draws on each generator,
        zeroing one source shifts the other's draw positions; the
        pairing is exact in generators, approximate in streams.)
        """
        return NonIdealFactors(
            0.0 if pv else self.sigma_pv,
            0.0 if sf else self.sigma_sf,
            self.seed,
        )


IDEAL = NonIdealFactors()
"""No process variation, no signal fluctuation."""
