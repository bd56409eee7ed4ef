"""Tests for the Monte-Carlo robustness evaluation loop."""

import numpy as np
import pytest

from repro.core.mei import MEI, MEIConfig
from repro.core.rcs import TraditionalRCS
from repro.core.saab import SAAB, SAABConfig
from repro.cost.area import Topology
from repro.device.variation import IDEAL, NonIdealFactors, trial_indices
from repro.metrics.robustness import (
    evaluate_under_noise,
    robustness_index,
)
from tests import reference_chain as oracle


class _NoisySystem:
    """A fake system whose output degrades with sigma (module-level so
    process pools can pickle it)."""

    def predict_trials(self, x, noise, trials):
        scale = noise.sigma_pv + noise.sigma_sf
        return np.stack([x + noise.rng(t).normal(0.0, scale + 1e-12, x.shape)
                         for t in trial_indices(trials)])


def _mae(pred, true):
    return float(np.mean(np.abs(pred - true)))


class TestEvaluateUnderNoise:
    def test_ideal_noise_runs_single_trial(self, rng):
        x = rng.uniform(0, 1, (20, 2))
        result = evaluate_under_noise(_NoisySystem(), x, x, _mae, IDEAL, trials=50)
        assert result.trials == 1
        assert result.mean == pytest.approx(0.0, abs=1e-9)

    def test_statistics_fields(self, rng):
        x = rng.uniform(0, 1, (30, 2))
        noise = NonIdealFactors(sigma_pv=0.1, seed=0)
        result = evaluate_under_noise(_NoisySystem(), x, x, _mae, noise, trials=10)
        assert result.trials == 10
        assert len(result.values) == 10
        assert result.worst >= result.mean >= 0
        assert result.std >= 0

    def test_trials_use_distinct_draws(self, rng):
        x = rng.uniform(0, 1, (30, 2))
        noise = NonIdealFactors(sigma_pv=0.2, seed=0)
        result = evaluate_under_noise(_NoisySystem(), x, x, _mae, noise, trials=5)
        assert len(np.unique(result.values)) > 1

    def test_rejects_zero_trials(self, rng):
        x = rng.uniform(0, 1, (5, 1))
        with pytest.raises(ValueError):
            evaluate_under_noise(_NoisySystem(), x, x, _mae, IDEAL, trials=0)


class TestNoiseSweep:
    def test_error_grows_with_sigma(self, rng):
        x = rng.uniform(0, 1, (50, 2))
        noises = [NonIdealFactors(sigma_pv=s, seed=0) for s in (0.01, 0.1, 0.5)]
        means = [evaluate_under_noise(_NoisySystem(), x, x, _mae, n, trials=10).mean
                 for n in noises]
        assert means == sorted(means)


def _train_data(rng, n=200):
    x = rng.uniform(0, 1, (n, 2))
    y = 0.25 + 0.5 * x.mean(axis=1, keepdims=True)
    return x, y


class TestVectorizedEquivalence:
    """The trial-stacked predict_trials path and its single-trial views
    must match the per-trial reference oracle bit for bit."""

    NOISE = NonIdealFactors(sigma_pv=0.1, sigma_sf=0.05, seed=7)

    def test_mei_stack_matches_serial_trials(self, rng, fast_train):
        x, y = _train_data(rng)
        mei = MEI(MEIConfig(2, 1, 8), seed=0).train(x, y, fast_train)
        stack = mei.predict_trials(x[:40], self.NOISE, trials=4)
        assert stack.shape[0] == 4
        for t in range(4):
            serial = mei.decode_outputs(oracle.mei_bits(mei, x[:40], self.NOISE, t))
            assert np.array_equal(stack[t], serial)
            assert np.array_equal(mei.predict(x[:40], self.NOISE, trial=t), serial)

    def test_rcs_stack_matches_serial_trials(self, rng, fast_train):
        x, y = _train_data(rng)
        rcs = TraditionalRCS(Topology(2, 8, 1), seed=0).train(x, y, fast_train)
        stack = rcs.predict_trials(x[:40], self.NOISE, trials=3)
        for t in range(3):
            serial = oracle.rcs_predict(rcs, x[:40], self.NOISE, t)
            assert np.array_equal(stack[t], serial)
            assert np.array_equal(rcs.predict(x[:40], self.NOISE, trial=t), serial)

    def test_saab_stack_matches_serial_trials(self, rng, fast_train):
        x, y = _train_data(rng)
        saab = SAAB(
            lambda i: MEI(MEIConfig(2, 1, 8), seed=10 + i),
            SAABConfig(n_learners=2, compare_bits=4, seed=0),
        ).train(x, y, fast_train)
        stack = saab.predict_trials(x[:30], self.NOISE, trials=3)
        for t in range(3):
            serial = saab.learners[0].decode_outputs(oracle.saab_bits(saab, x[:30], self.NOISE, t))
            assert np.array_equal(stack[t], serial)
            assert np.array_equal(saab.predict(x[:30], self.NOISE, trial=t), serial)

    def test_evaluate_vectorized_matches_loop(self, rng, fast_train):
        x, y = _train_data(rng)
        mei = MEI(MEIConfig(2, 1, 8), seed=0).train(x, y, fast_train)
        metric = lambda p, t: float(np.mean(np.abs(p - t)))
        vectorized = evaluate_under_noise(mei, x[:40], y[:40], metric, self.NOISE, trials=5)
        looped = [metric(mei.decode_outputs(oracle.mei_bits(mei, x[:40], self.NOISE, t)), y[:40])
                  for t in range(5)]
        assert np.array_equal(vectorized.values, looped)

    def test_system_object_ideal_noise(self, rng, fast_train):
        x, y = _train_data(rng)
        mei = MEI(MEIConfig(2, 1, 8), seed=0).train(x, y, fast_train)
        metric = lambda p, t: float(np.mean(np.abs(p - t)))
        result = evaluate_under_noise(mei, x[:20], y[:20], metric, IDEAL, trials=10)
        assert result.trials == 1
        assert result.values[0] == pytest.approx(metric(mei.predict(x[:20]), y[:20]))


class TestRobustnessIndex:
    def test_perfectly_robust(self):
        assert robustness_index(0.1, 0.1) == 1.0

    def test_zero_noisy_error(self):
        assert robustness_index(0.0, 0.0) == 1.0

    def test_fragile_when_clean_is_zero(self):
        assert robustness_index(0.0, 0.5) == 0.0

    def test_capped_at_one(self):
        # Noise accidentally improving the metric still caps at 1.
        assert robustness_index(0.2, 0.1) == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            robustness_index(-0.1, 0.1)
