"""Tests for the repro.parallel executor layer and seed derivation.

The subsystem's core guarantee — serial and parallel runs of a sweep
return bit-identical results — is exercised here at every level:
executor maps, seed repeats, noise sweeps and the DSE ladder.
"""

import functools
import warnings

import numpy as np
import pytest

from repro.core.dse import DSEConfig, _make_candidate_mei, search_hidden_size
from repro.core.runner import repeat_with_seeds
from repro.device.variation import NonIdealFactors, trial_indices
from repro.metrics.robustness import noise_sweep
from repro.nn.trainer import TrainConfig
from repro.parallel import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    derive_seed,
    derive_seeds,
    get_executor,
    parallel_map,
    resolve_workers,
)
from repro.parallel.executor import EXECUTOR_ENV, WORKERS_ENV
from tests import reference_chain as oracle


def _square(v):
    """Module-level so process pools can pickle it."""
    return v * v


def _seeded_value(seed):
    """A deterministic per-seed scalar (stands in for an experiment)."""
    return float(np.random.default_rng(seed).normal())


class _NoisyIdentity:
    """A fake system: identity plus seeded per-trial noise (module-level
    so process pools can pickle it)."""

    def predict_trials(self, x, noise, trials):
        scale = noise.sigma_pv + noise.sigma_sf + 1e-12
        return np.stack([x + noise.rng(t).normal(0.0, scale, x.shape)
                         for t in trial_indices(trials)])


def _mae(pred, true):
    return float(np.mean(np.abs(pred - true)))


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert resolve_workers(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert resolve_workers() == 4

    def test_bad_env_warns_and_runs_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.warns(RuntimeWarning, match="non-integer"):
            assert resolve_workers() == 1

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestGetExecutor:
    def test_one_worker_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert isinstance(get_executor(), SerialExecutor)
        assert isinstance(get_executor(1), SerialExecutor)

    def test_default_multiworker_kind_is_process(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        assert isinstance(get_executor(2), ProcessExecutor)

    def test_kind_argument(self):
        assert isinstance(get_executor(2, kind="thread"), ThreadExecutor)
        assert isinstance(get_executor(2, kind="serial"), SerialExecutor)

    def test_kind_from_env(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "thread")
        assert isinstance(get_executor(2), ThreadExecutor)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            get_executor(2, kind="gpu")


class TestExecutorEquivalence:
    ITEMS = [3, 1, 4, 1, 5, 9, 2, 6]

    def test_serial_preserves_order(self):
        assert SerialExecutor().map(_square, self.ITEMS) == [v * v for v in self.ITEMS]

    def test_thread_matches_serial(self):
        serial = SerialExecutor().map(_square, self.ITEMS)
        assert ThreadExecutor(4).map(_square, self.ITEMS) == serial

    def test_process_matches_serial(self):
        serial = SerialExecutor().map(_square, self.ITEMS)
        assert ProcessExecutor(2).map(_square, self.ITEMS) == serial

    def test_process_lambda_falls_back_to_serial(self):
        offset = 10
        with pytest.warns(RuntimeWarning, match="not picklable"):
            result = ProcessExecutor(2).map(lambda v: v + offset, [1, 2, 3])
        assert result == [11, 12, 13]

    def test_single_item_skips_pool(self):
        # No pool spin-up (and no pickling requirement) for one task.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ProcessExecutor(4).map(lambda v: v + 1, [41]) == [42]

    def test_parallel_map_helper(self):
        assert parallel_map(_square, self.ITEMS, workers=1) == [
            v * v for v in self.ITEMS
        ]
        assert parallel_map(
            _square, self.ITEMS, executor=ThreadExecutor(2)
        ) == [v * v for v in self.ITEMS]


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_distinct_across_indices(self):
        seeds = derive_seeds(0, 64)
        assert len(set(seeds)) == 64

    def test_distinct_across_bases(self):
        assert derive_seed(0, 0) != derive_seed(1, 0)

    def test_none_base_allowed(self):
        assert derive_seed(None, 2) == derive_seed(None, 2)

    def test_matches_elementwise_derivation(self):
        assert derive_seeds(5, 4) == [derive_seed(5, i) for i in range(4)]

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            derive_seed(0, -1)

    def test_rejects_empty_count(self):
        with pytest.raises(ValueError):
            derive_seeds(0, 0)


class TestRepeatWithSeeds:
    def test_statistics(self):
        mean, std, values = repeat_with_seeds(_seeded_value, range(5))
        assert len(values) == 5
        assert mean == pytest.approx(float(values.mean()))
        assert std == pytest.approx(float(values.std()))

    def test_parallel_matches_serial(self):
        _, _, serial = repeat_with_seeds(_seeded_value, range(6))
        _, _, threaded = repeat_with_seeds(
            _seeded_value, range(6), executor=ThreadExecutor(3)
        )
        _, _, processed = repeat_with_seeds(
            _seeded_value, range(6), executor=ProcessExecutor(2)
        )
        assert np.array_equal(serial, threaded)
        assert np.array_equal(serial, processed)

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            repeat_with_seeds(_seeded_value, [])


class TestNoiseSweepExecutors:
    def test_parallel_sweep_matches_serial(self, rng):
        x = rng.uniform(0, 1, (40, 2))
        noises = [NonIdealFactors(sigma_pv=s, seed=3) for s in (0.02, 0.1, 0.3)]
        serial = noise_sweep(_NoisyIdentity(), x, x, _mae, noises, trials=6)
        threaded = noise_sweep(
            _NoisyIdentity(), x, x, _mae, noises, trials=6,
            executor=ThreadExecutor(3),
        )
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.values, b.values)

    def test_workers_argument(self, rng, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "thread")
        x = rng.uniform(0, 1, (20, 2))
        noises = [NonIdealFactors(sigma_pv=s, seed=3) for s in (0.05, 0.2)]
        serial = noise_sweep(_NoisyIdentity(), x, x, _mae, noises, trials=4)
        parallel = noise_sweep(_NoisyIdentity(), x, x, _mae, noises, trials=4, workers=2)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.values, b.values)


class TestFaultedTrialEquivalence:
    """Differential tests: the trial-stacked Monte-Carlo path must stay
    bit-identical to the per-trial reference oracle when hard faults
    are injected — stuck cells change the conductances, never the
    trial seeding."""

    def _faulted_mei(self, rng, fast_train):
        from repro.core.mei import MEI, MEIConfig
        from repro.device.faults import FaultModel, inject_faults_analog_report

        x = rng.uniform(0, 1, (200, 2))
        y = 0.2 + 0.5 * (0.6 * x[:, :1] + 0.4 * x[:, 1:] ** 2)
        mei = MEI(MEIConfig(2, 1, 12), seed=0).train(x, y, fast_train)
        inject_faults_analog_report(
            mei.analog,
            FaultModel(stuck_on_rate=0.04, stuck_off_rate=0.04,
                       row_failure_rate=0.02, col_failure_rate=0.02, seed=9),
        )
        return mei, x

    def test_forward_trials_matches_serial_loop(self, rng, fast_train):
        mei, x = self._faulted_mei(rng, fast_train)
        noise = NonIdealFactors(sigma_pv=0.08, sigma_sf=0.05, seed=11)
        encoded = mei.encode_inputs(x)
        stacked = mei.analog.forward_trials(encoded, noise, trials=4)
        for trial in range(4):
            serial = oracle.forward(mei.analog, encoded, noise, trial)
            assert np.array_equal(stacked[trial], serial)

    def test_predict_bits_trials_matches_serial_loop(self, rng, fast_train):
        mei, x = self._faulted_mei(rng, fast_train)
        noise = NonIdealFactors(sigma_pv=0.08, sigma_sf=0.05, seed=11)
        stacked = mei.predict_bits_trials(x, noise, trials=4)
        for trial in range(4):
            serial = oracle.mei_bits(mei, x, noise, trial)
            assert np.array_equal(stacked[trial], serial)

    def test_faulted_saab_trials_match_serial_loop(self, rng, fast_train):
        from repro.core.mei import MEIConfig
        from repro.device.faults import FaultModel
        from repro.robustness.mitigation import fault_aware_saab

        x = rng.uniform(0, 1, (150, 2))
        y = 0.2 + 0.5 * (0.6 * x[:, :1] + 0.4 * x[:, 1:] ** 2)
        saab = fault_aware_saab(
            MEIConfig(2, 1, 12),
            FaultModel(stuck_on_rate=0.03, stuck_off_rate=0.03, seed=5),
            n_learners=2, seed=0, compare_bits=4,
        ).train(x, y, fast_train)
        noise = NonIdealFactors(sigma_pv=0.05, sigma_sf=0.05, seed=2)
        stacked = saab.predict_bits_trials(x, noise, trials=3)
        for trial in range(3):
            serial = oracle.saab_bits(saab, x, noise, trial)
            assert np.array_equal(stacked[trial], serial)


class TestDSEParallelLadder:
    def _setup(self, rng):
        x = rng.uniform(0, 1, (120, 2))
        y = 0.3 + 0.4 * x.mean(axis=1, keepdims=True)
        make_mei = functools.partial(_make_candidate_mei, 2, 1, 8)
        config = DSEConfig(
            error_requirement=0.5, initial_hidden=2, max_hidden=8, seed=0
        )
        train = TrainConfig(
            epochs=8, batch_size=32, shuffle_seed=0, track_train_loss=False
        )
        return x, y, make_mei, config, train

    def test_parallel_ladder_matches_serial(self, rng):
        x, y, make_mei, config, train = self._setup(rng)
        mei_s, hidden_s, hist_s = search_hidden_size(
            make_mei, x, y, x, y, _mae, config, train, executor=SerialExecutor()
        )
        mei_p, hidden_p, hist_p = search_hidden_size(
            make_mei, x, y, x, y, _mae, config, train, executor=ThreadExecutor(3)
        )
        assert hidden_s == hidden_p
        assert hist_s == hist_p
        assert np.array_equal(mei_s.predict(x), mei_p.predict(x))
