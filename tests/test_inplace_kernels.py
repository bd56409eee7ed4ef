"""In-place trial-stack kernels: exactness, no aliasing, dtype stability.

The Monte-Carlo forward chain builds each stage's result in a buffer
the stage owns.  These tests pin that rewrite to the out-of-place
expressions it replaced: same bits, same output dtype (float64 and
``REPRO_DTYPE=float32``), caller inputs never written, read-only
(``np.broadcast_to``) inputs accepted.  They also pin the exp-free
regeneration of MEI's digital inputs to the lognormal draw it skips.
"""

import math

import numpy as np
import pytest

from repro.analog.periphery import Comparator, SigmoidNeuron
from repro.config import dtype as cfg_dtype
from repro.core.deploy import AnalogMLP
from repro.core.mei import MEI, MEIConfig
from repro.core.saab import SAAB, SAABConfig
from repro.device.variation import (
    NonIdealFactors,
    exp_at_least_half,
    lognormal_factor_stack,
    pv_factor_stacks,
    regenerated_bit_stack,
)
from repro.nn.network import MLP
from repro.nn.trainer import TrainConfig
from repro.xbar.mapping import DifferentialCrossbar
from tests import reference_chain as oracle

NOISE = NonIdealFactors(sigma_pv=0.08, sigma_sf=0.05, seed=11)
PV_ONLY = NonIdealFactors(sigma_pv=0.08, seed=11)


@pytest.fixture(params=["float64", "float32"])
def dtype(request):
    cfg_dtype.set_active_dtype(request.param)
    yield np.dtype(request.param)
    cfg_dtype.set_active_dtype(None)


def _assert_matches_serial(batched, serial, dtype):
    """Bit-identical at float64; float32 is a tolerance opt-out (the
    per-trial reference oracle runs some stages in float64)."""
    if dtype == np.float64:
        assert batched.dtype == serial.dtype
        assert np.array_equal(batched, serial)
    else:
        assert np.allclose(batched, serial, rtol=1e-4, atol=1e-6)


def _read_only(x):
    """A read-only broadcasting view with the same values as ``x``."""
    view = np.broadcast_to(x, x.shape)
    assert not view.flags.writeable
    return view


class TestExpAtLeastHalf:
    def test_ulps_around_log_half_match_libm(self, monkeypatch):
        x0 = math.log(0.5)
        xs = [x0]
        for direction in (-np.inf, np.inf):
            x = x0
            for _ in range(4):
                x = float(np.nextafter(x, direction))
                xs.append(x)
        expected = [math.exp(x) >= 0.5 for x in xs]
        libm_exp, calls = math.exp, []
        monkeypatch.setattr(math, "exp", lambda x: calls.append(x) or libm_exp(x))
        decided = exp_at_least_half(np.array(xs))
        assert decided.tolist() == expected
        # Every neighbour was re-decided by the C library exp.
        assert sorted(calls) == sorted(xs)
        # The neighbourhood straddles the threshold, so both answers occur.
        assert decided.any() and not decided.all()

    def test_far_from_threshold_and_specials(self, monkeypatch):
        x0 = math.log(0.5)
        xs = [x0 - 1e-8, x0 + 1e-8, -5.0, 5.0, 0.0, -np.inf, np.inf, np.nan]
        expected = [math.exp(x) >= 0.5 for x in xs]
        monkeypatch.setattr(math, "exp", None)  # decided without any exp
        assert exp_at_least_half(np.array(xs)).tolist() == expected


def _bases(shape, rng):
    masked = (rng.uniform(size=shape) < 0.5).astype(float)
    masked[:, ::3] = 0.0  # pruned ports
    return {
        "on": np.ones(shape),
        "masked": masked,
        "zeros": np.zeros(shape),
    }


class TestRegeneratedBitStack:
    @pytest.mark.parametrize("sigma", [0.01, 0.05, 0.2, 1.0])
    @pytest.mark.parametrize("kind", ["on", "masked", "zeros"])
    def test_equals_thresholded_lognormal(self, dtype, sigma, kind):
        base = _bases((150, 48), np.random.default_rng(3))[kind]
        noise = NonIdealFactors(sigma_sf=sigma, seed=7)
        fast_rngs, ref_rngs = noise.rngs(4), noise.rngs(4)
        stack, which = regenerated_bit_stack(base, sigma, fast_rngs)
        fast = stack[which]
        ref = (base * lognormal_factor_stack(base.shape, sigma, ref_rngs) >= 0.5).astype(float)
        assert fast.dtype == ref.dtype == np.float64
        assert np.array_equal(fast, ref)
        # Clean trials share one slot; every flipped trial has its own.
        clean = [np.array_equal(r, base) for r in ref]
        assert len(stack) == (1 if any(clean) else 0) + clean.count(False)
        assert len({which[t] for t in range(len(clean)) if clean[t]}) <= 1
        assert list(which) == sorted(which)
        # The generators were consumed identically.
        for a, b in zip(fast_rngs, ref_rngs):
            assert a.standard_normal() == b.standard_normal()

    def test_non_binary_inputs_take_the_multiply_path(self):
        base = np.random.default_rng(4).uniform(0.0, 1.5, (20, 6))
        noise = NonIdealFactors(sigma_sf=0.3, seed=2)
        stack, which = regenerated_bit_stack(base, 0.3, noise.rngs(3))
        ref = base * lognormal_factor_stack(base.shape, 0.3, noise.rngs(3)) >= 0.5
        assert np.array_equal(stack, ref.astype(float))
        assert which.tolist() == [0, 1, 2]

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(ValueError):
            regenerated_bit_stack(np.ones((2, 2)), 0.0, [])


class TestNoAliasing:
    """Each in-place stage leaves its inputs alone and keeps its dtype."""

    def test_sigmoid_neuron(self, dtype, offset_sigma=0.1):
        rng = np.random.default_rng(0)
        neuron = SigmoidNeuron(gain=1.5, bias=rng.normal(size=4), offset_sigma=offset_sigma,
                               rng=np.random.default_rng(1))
        x = cfg_dtype.astype(rng.normal(0, 30, (3, 5, 4)))
        before = x.copy()
        out = neuron.apply(x)
        pre = np.clip(neuron.gain * x + neuron.bias + neuron._offsets, -60.0, 60.0)
        ref = 1.0 / (1.0 + np.exp(-pre))
        assert np.array_equal(x, before)
        assert out.dtype == ref.dtype
        assert np.array_equal(out, ref)
        assert np.array_equal(neuron.apply(_read_only(x)), ref)

    def test_sigmoid_neuron_without_mismatch(self, dtype):
        # offset_sigma == 0 skips the zero offsets: same bits as adding them.
        self.test_sigmoid_neuron(dtype, offset_sigma=0.0)

    def test_sigmoid_neuron_exact_zero_pre_activation(self, dtype):
        # -(x + bias) is +0 where the textbook negation gives -0: both exp to 1.
        bias = cfg_dtype.astype(np.random.default_rng(2).normal(size=6))
        neuron = SigmoidNeuron(gain=1.0, bias=bias)
        x = np.stack([-bias, bias, -2 * bias])
        ref = 1.0 / (1.0 + np.exp(-np.clip(neuron.gain * x + neuron.bias, -60.0, 60.0)))
        assert np.array_equal(neuron.apply(x), ref)
        assert np.all(neuron.apply(x)[0] == 0.5)

    def _pair(self):
        weights = np.random.default_rng(2).normal(size=(6, 3))
        return DifferentialCrossbar(weights)

    def test_crossbar_apply_trials(self, dtype):
        array = self._pair().positive
        rng = np.random.default_rng(3)
        v = cfg_dtype.astype(rng.uniform(size=(2, 5, 6)))
        factors = lognormal_factor_stack(array.conductances.shape, 0.1, PV_ONLY.rngs(2))
        before = v.copy()
        g = array.device.clip_conductance(array.conductances * factors)
        ref = v @ (g / (array.g_s + g.sum(axis=1, keepdims=True)))
        out = array.apply_trials(v, factors.copy())
        assert np.array_equal(v, before)
        assert out.dtype == ref.dtype
        assert np.array_equal(out, ref)
        # Read-only inputs, including a read-only factor stack, work.
        again = array.apply_trials(_read_only(v), _read_only(factors))
        assert np.array_equal(again, ref)

    def test_differential_apply(self, dtype):
        pair = self._pair()
        x = cfg_dtype.astype(np.random.default_rng(4).uniform(size=(5, 6)))
        before = x.copy()
        ref = (pair.positive.apply(x) - pair.negative.apply(x)) * pair.gain
        out = pair.apply(x)
        assert np.array_equal(x, before)
        assert out.dtype == ref.dtype
        assert np.array_equal(out, ref)
        assert np.array_equal(pair.apply(_read_only(x)), ref)

    def test_differential_apply_trials(self, dtype):
        pair = self._pair()
        x = cfg_dtype.astype(np.random.default_rng(5).uniform(size=(3, 5, 6)))
        before = x.copy()
        ref = (pair.positive.apply_trials(x) - pair.negative.apply_trials(x)) * pair.gain
        out = pair.apply_trials(x)
        assert np.array_equal(x, before)
        assert out.dtype == ref.dtype
        assert np.array_equal(out, ref)
        noisy = pair.apply_trials(x, pv_factor_stacks([pair], NOISE.sigma_pv, NOISE.rngs(3))[0])
        assert np.array_equal(x, before)
        again = pv_factor_stacks([pair], NOISE.sigma_pv, NOISE.rngs(3))[0]
        assert np.array_equal(pair.apply_trials(_read_only(x), again), noisy)
        for t in range(3):
            serial = oracle.layer_output(pair, x[t], NOISE.sigma_pv, NOISE.rng(t))
            _assert_matches_serial(noisy[t], serial, dtype)

    def test_forward_trials(self, dtype):
        mlp = MLP([6, 5, 3], rng=0)
        for digital in (False, True):
            analog = AnalogMLP(mlp, digital_input=digital)
            x = np.random.default_rng(6).uniform(size=(7, 6))
            if digital:
                x = (x >= 0.5).astype(float)
            before = x.copy()
            out = analog.forward_trials(x, NOISE, trials=3)
            assert out.dtype == dtype
            assert np.array_equal(x, before)
            assert np.array_equal(analog.forward_trials(_read_only(x), NOISE, trials=3), out)
            for t in range(3):
                _assert_matches_serial(out[t], oracle.forward(analog, x, NOISE, t), dtype)

    def test_saab_predict_bits_trials(self, dtype):
        rng = np.random.default_rng(7)
        x = rng.uniform(size=(60, 2))
        y = 0.2 + 0.5 * x[:, :1] * x[:, 1:]
        saab = SAAB(
            lambda i: MEI(MEIConfig(2, 1, 6, bits=4), seed=10 + i),
            SAABConfig(n_learners=3, compare_bits=3, seed=0),
        ).train(x, y, TrainConfig(epochs=3, batch_size=32, shuffle_seed=0))
        probe = x[:20].copy()
        out = saab.predict_bits_trials(probe, NOISE, trials=3)
        assert np.array_equal(probe, x[:20])
        assert out.dtype == np.float64
        assert np.array_equal(saab.predict_bits_trials(_read_only(probe), NOISE, trials=3), out)
        for t in range(3):
            assert np.array_equal(out[t], oracle.saab_bits(saab, probe, NOISE, t))


def _band_probe(dtype):
    """Pre-activations at and around the comparator's decision point."""
    band = 2**10 * np.finfo(dtype).eps
    z = [0.0, -0.0, -1e-7, 1e-7, -1e-9, np.inf, -np.inf, np.nan]
    for start in (0.0, band, -band):
        for direction in (-np.inf, np.inf):
            value = dtype.type(start)
            for _ in range(4):
                value = np.nextafter(value, dtype.type(direction))
                z.append(value)
    z.extend(np.linspace(-2 * band, 2 * band, 2001))
    z.extend(np.random.default_rng(0).normal(0.0, band, 500))
    return np.array(z, dtype=dtype)


def _textbook_decision(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0))) >= 0.5


class TestComparatorDecision:
    """MEI's ideal comparator decides on the last stage's pre-activation;
    pinned to thresholding the textbook sigmoid at the float sign's
    blind spots: exact zeros, the first ulps around it, both band edges,
    -1e-7 (inside the float32 band) and the non-finite values."""

    def test_sign_alone_would_disagree(self, dtype):
        z = _band_probe(dtype)
        assert np.any((z >= 0) != _textbook_decision(z))

    def test_neuron_then_comparator_is_the_textbook(self, dtype):
        z = _band_probe(dtype)
        neuron = SigmoidNeuron(gain=1.0, bias=np.zeros(1))
        decided = Comparator().apply(neuron.apply(z[:, None]))[:, 0]
        assert decided.tolist() == _textbook_decision(z).astype(float).tolist()

    def test_decision_on_the_neuron_input(self, dtype):
        z = _band_probe(dtype)
        neuron = SigmoidNeuron(gain=1.0, bias=np.zeros(1))
        expected = Comparator().apply(neuron.apply(z[:, None]))
        decided = Comparator().apply(z[:, None].copy(), neuron=neuron)
        assert decided.dtype == expected.dtype
        assert decided.tolist() == expected.tolist()
        with pytest.raises(ValueError):
            Comparator(offset_sigma=0.1).apply(z[:, None], neuron=neuron)
        with pytest.raises(ValueError):
            Comparator(threshold=0.6).apply(z[:, None], neuron=neuron)

    def test_mei_chain_decides_like_the_textbook(self, dtype):
        # Zero last-layer weights on an exact mapping: the comparator's
        # pre-activation is the last layer's bias, i.e. exactly ``z``.
        z = _band_probe(dtype)
        bits = 8
        groups = -(-len(z) // bits)
        mei = MEI(MEIConfig(1, groups, 2, bits=bits), seed=0)
        last = mei.network.layers[-1]
        last.weights[...] = 0.0
        last.bias[...] = 0.0
        last.bias[: len(z)] = z
        mei = mei.deploy_variant(exact_mapping=True)
        out = mei.predict_bits_trials(np.array([[0.3], [0.7]]))
        assert out.shape == (1, 2, groups * bits)
        for sample in out[0]:
            assert sample[: len(z)].tolist() == _textbook_decision(z).astype(float).tolist()
