"""The forward kernels and their one-trial views against the per-trial oracle.

Bit for bit (float64) over plain, tiled, exact, wired (IR drop + input
nonlinearity) and faulted deployments, analog and digital inputs, under
PV, SF, both and neither; each matrix stage under the factors its
caller draws.  MEI, RCS and SAAB systems are pinned to the
same oracle in ``test_metrics_robustness`` and ``test_parallel``.
"""

import numpy as np
import pytest

from repro.core.deploy import AnalogMLP
from repro.core.mei import MEI, MEIConfig
from repro.device.faults import FaultModel, inject_faults_analog_report
from repro.device.variation import (
    IDEAL,
    NonIdealFactors,
    lognormal_factor_stack,
    lognormal_factors,
    pv_factor_stacks,
)
from repro.nn.network import MLP
from repro.xbar.mapping import MappingConfig
from tests import reference_chain as oracle

NOISES = {
    "pv+sf": NonIdealFactors(sigma_pv=0.08, sigma_sf=0.05, seed=11),
    "pv": NonIdealFactors(sigma_pv=0.1, seed=3),
    "sf": NonIdealFactors(sigma_sf=0.2, seed=5),
    "ideal": IDEAL,
}
FAULTS = FaultModel(stuck_on_rate=0.05, stuck_off_rate=0.05, row_failure_rate=0.05,
                    col_failure_rate=0.05, seed=9)
DEPLOYMENTS = {
    "plain": ({}, None),
    "tiled": ({"mapping_config": MappingConfig(max_rows_per_tile=4)}, None),
    "wired": ({"mapping_config": MappingConfig(wire_resistance=2.0,
                                               input_nonlinearity=0.7)}, None),
    "exact": ({"exact_mapping": True}, None),
    "faulted": ({}, FAULTS),
    "tiled-faulted": ({"mapping_config": MappingConfig(max_rows_per_tile=5)}, FAULTS),
}
TRIALS = [0, 1, 6]  # an explicit index list, not range(n)


def _deploy(kind, sizes, digital_input=False):
    options, faults = DEPLOYMENTS[kind]
    analog = AnalogMLP(MLP(sizes, rng=2), digital_input=digital_input, **options)
    if faults is not None:
        inject_faults_analog_report(analog, faults)
    return analog


def _inputs(digital):
    x = np.random.default_rng(21).uniform(size=(9, 11))
    return (x >= 0.5).astype(float) if digital else x


def _assert_matches(stack, reference_of):
    assert stack.shape[0] == len(TRIALS)
    for slot, trial in enumerate(TRIALS):
        expected = reference_of(trial)
        assert stack[slot].dtype == expected.dtype
        assert np.array_equal(stack[slot], expected), f"trial {trial}"


@pytest.mark.parametrize("noise", NOISES.values(), ids=NOISES.keys())
@pytest.mark.parametrize("kind", DEPLOYMENTS)
@pytest.mark.parametrize("digital", [False, True], ids=["analog-in", "digital-in"])
def test_forward_trials_matches_oracle(kind, noise, digital):
    analog = _deploy(kind, (11, 7, 5), digital)
    x = _inputs(digital)
    stack = analog.forward_trials(x, noise, TRIALS)
    _assert_matches(stack, lambda t: oracle.forward(analog, x, noise, t))
    assert np.array_equal(np.stack([analog.forward(x, noise, trial=t) for t in TRIALS]), stack)


@pytest.mark.parametrize("noise", NOISES.values(), ids=NOISES.keys())
@pytest.mark.parametrize("kind", ["single", "plain", "tiled", "wired", "exact"])
def test_matrix_stage_apply_matches_oracle(kind, noise):
    """A stage draws nothing: it computes under its caller's draws, made
    in the chain's order (SF on the inputs, then the stage's PV)."""
    xbar = _deploy("wired" if kind == "single" else kind, (11, 5)).crossbars[0]
    xbar = xbar.positive if kind == "single" else xbar
    x = _inputs(False)
    v, pv_factors = np.broadcast_to(x, (len(TRIALS),) + x.shape), None
    if not noise.is_ideal:
        rngs = noise.rngs(TRIALS)
        if noise.sigma_sf > 0:
            v = v * lognormal_factor_stack(x.shape, noise.sigma_sf, rngs)
        if noise.sigma_pv > 0:
            (pv_factors,) = pv_factor_stacks([xbar], noise.sigma_pv, rngs)
    stack = xbar.apply_trials(v, pv_factors)

    def reference(trial):
        rng = None if noise.is_ideal else noise.rng(trial)
        v_t = x * lognormal_factors(x.shape, noise.sigma_sf, rng) if noise.sigma_sf > 0 else x
        return oracle.layer_output(xbar, v_t, noise.sigma_pv, rng)

    _assert_matches(stack, reference)
    assert np.array_equal(xbar.apply(x), oracle.layer_output(xbar, x, 0.0, None))


# SF strong enough that some trials' regenerated digital inputs flip
# and others come back clean; PV on top (same seed, so the same SF
# draws) makes every trial a pass of its own again.
MIXED_SF = {
    "sf-mixed": NonIdealFactors(sigma_sf=0.3, seed=4),
    "pv+sf-mixed": NonIdealFactors(sigma_pv=0.08, sigma_sf=0.3, seed=4),
}
MIXED_TRIALS = [0, 1, 2, 3, 6]


def _clean_trials(x, noise, trials):
    """Per trial: did the receivers regenerate exactly the clean bits?"""
    return [
        np.array_equal((x * lognormal_factors(x.shape, noise.sigma_sf, noise.rng(t)) >= 0.5), x)
        for t in trials
    ]


@pytest.mark.parametrize("noise", MIXED_SF.values(), ids=MIXED_SF.keys())
@pytest.mark.parametrize("kind", DEPLOYMENTS)
def test_forward_trials_mixed_clean_and_flipped_inputs(kind, noise):
    x = _inputs(True)
    clean = _clean_trials(x, noise, MIXED_TRIALS)
    assert any(clean) and not all(clean), clean
    analog = _deploy(kind, (11, 7, 5), digital_input=True)
    stack = analog.forward_trials(x, noise, MIXED_TRIALS)
    assert stack.shape[0] == len(MIXED_TRIALS)
    for slot, trial in enumerate(MIXED_TRIALS):
        assert np.array_equal(stack[slot], oracle.forward(analog, x, noise, trial)), trial
    # Clean trials share a pass but not memory: the stack is the caller's.
    first, second = [slot for slot, c in enumerate(clean) if c][:2]
    before = stack[second].copy()
    stack[first] += 1.0
    assert np.array_equal(stack[second], before)


@pytest.mark.parametrize("noise", {**MIXED_SF, **NOISES}.values(),
                         ids={**MIXED_SF, **NOISES}.keys())
def test_mei_bits_mixed_clean_and_flipped_inputs(noise):
    mei = MEI(MEIConfig(3, 2, 9, bits=4), seed=1)
    mei.deploy()
    x = np.random.default_rng(8).uniform(size=(40, 3))
    if noise.sigma_sf == 0.3:
        clean = _clean_trials(mei.encode_inputs(x), noise, MIXED_TRIALS)
        assert any(clean) and not all(clean), clean
    stack = mei.predict_bits_trials(x, noise, MIXED_TRIALS)
    for slot, trial in enumerate(MIXED_TRIALS):
        assert np.array_equal(stack[slot], oracle.mei_bits(mei, x, noise, trial)), trial
