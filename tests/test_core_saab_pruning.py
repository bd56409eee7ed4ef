"""Tests for SAAB (Algorithm 1) and LSB pruning (Algorithm 2, Line 22)."""

import logging

import numpy as np
import pytest

from repro.core.mei import MEI, MEIConfig
from repro.core.pruning import prune_input_bits, prune_lsbs, prune_output_bits
from repro.core.saab import SAAB, SAABConfig
from repro.device.variation import NonIdealFactors
from repro.nn.trainer import TrainConfig


def _toy_data(rng, n=400):
    x = rng.uniform(0, 1, (n, 2))
    y = 0.2 + 0.5 * (0.6 * x[:, :1] + 0.4 * x[:, 1:] ** 2)
    return x, y


def _mei_factory(seed_base=100, hidden=12):
    return lambda k: MEI(MEIConfig(2, 1, hidden), seed=seed_base + k)


class TestSAABConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SAABConfig(n_learners=0)
        with pytest.raises(ValueError):
            SAABConfig(n_learners=1, compare_bits=0)


class TestSAAB:
    def test_trains_requested_learners(self, rng, fast_train):
        x, y = _toy_data(rng)
        saab = SAAB(_mei_factory(), SAABConfig(n_learners=3, seed=0))
        saab.train(x, y, fast_train)
        assert len(saab) == 3
        assert len(saab.alphas) == 3
        assert len(saab.rounds) == 3

    @pytest.mark.parametrize("compare_bits, warnings", [(8, 1), (1, 0)])
    def test_warns_once_when_no_round_boosts(self, rng, caplog, monkeypatch,
                                             compare_bits, warnings):
        # The repro logger does not propagate; let caplog's root handler see it.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        x, y = _toy_data(rng, n=200)
        cfg = TrainConfig(epochs=5, batch_size=64, learning_rate=0.02, shuffle_seed=0)
        saab = SAAB(_mei_factory(hidden=8),
                    SAABConfig(n_learners=2, compare_bits=compare_bits, seed=0))
        with caplog.at_level(logging.WARNING, logger="repro.core.saab"):
            saab.train(x, y, cfg)
        records = [r for r in caplog.records if r.name == "repro.core.saab"]
        assert len(records) == warnings
        boosted = [r.error < 0.5 for r in saab.rounds]
        assert boosted == [not warnings] * 2
        assert saab.boosted_rounds == sum(boosted)
        if warnings:
            assert records[0].levelno == logging.WARNING
            assert records[0].fields == {"K": 2,
                                         "errors": [round(r.error, 6) for r in saab.rounds]}

    def test_predict_requires_training(self):
        saab = SAAB(_mei_factory(), SAABConfig(n_learners=2))
        with pytest.raises(RuntimeError):
            saab.predict_bits(np.zeros((1, 2)))

    def test_extend_continues_state(self, rng, fast_train):
        x, y = _toy_data(rng)
        saab = SAAB(_mei_factory(), SAABConfig(n_learners=1, seed=0))
        saab.extend(x, y, 1, fast_train)
        saab.extend(x, y, 2, fast_train)
        assert len(saab) == 3

    def test_extend_rejects_different_set(self, rng, fast_train):
        x, y = _toy_data(rng)
        saab = SAAB(_mei_factory(), SAABConfig(n_learners=1, seed=0))
        saab.extend(x, y, 1, fast_train)
        with pytest.raises(ValueError):
            saab.extend(x[:10], y[:10], 1, fast_train)

    def test_alpha_sign_tracks_error(self, rng, fast_train):
        x, y = _toy_data(rng)
        saab = SAAB(_mei_factory(hidden=16), SAABConfig(n_learners=2, compare_bits=2, seed=0))
        saab.train(x, y, fast_train)
        for round_info in saab.rounds:
            if round_info.error < 0.5:
                assert round_info.alpha > 0
            else:
                assert round_info.alpha < 0

    def test_ensemble_not_worse_than_single(self, rng, fast_train):
        """Boosting should not degrade accuracy materially."""
        x, y = _toy_data(rng, n=600)
        saab = SAAB(_mei_factory(hidden=16), SAABConfig(n_learners=3, compare_bits=3, seed=0))
        saab.train(x, y, fast_train)
        single = np.mean(np.abs(saab.learners[0].predict(x) - y))
        voted = np.mean(np.abs(saab.predict(x) - y))
        assert voted <= single * 1.1

    def test_vote_is_binary(self, rng, fast_train):
        x, y = _toy_data(rng)
        saab = SAAB(_mei_factory(), SAABConfig(n_learners=3, seed=0)).train(x, y, fast_train)
        bits = saab.predict_bits(x[:5])
        assert set(np.unique(bits)) <= {0.0, 1.0}

    def test_unanimous_vote_passes_through(self, rng, fast_train):
        """If all learners agree, the vote must return their output."""
        x, y = _toy_data(rng)
        saab = SAAB(_mei_factory(), SAABConfig(n_learners=3, seed=0)).train(x, y, fast_train)
        outs = [l.predict_bits(x[:20]) for l in saab.learners]
        agree = np.all(outs[0] == outs[1], axis=1) & np.all(outs[1] == outs[2], axis=1)
        if agree.any():
            voted = saab.predict_bits(x[:20])
            assert np.array_equal(voted[agree], outs[0][agree])

    def test_noise_aware_evaluation_runs(self, rng, fast_train):
        x, y = _toy_data(rng)
        noise = NonIdealFactors(sigma_pv=0.05, sigma_sf=0.05, seed=1)
        saab = SAAB(_mei_factory(), SAABConfig(n_learners=2, noise=noise, seed=0))
        saab.train(x, y, fast_train)
        assert len(saab) == 2

    def test_hard_samples_get_upweighted(self, rng, fast_train):
        x, y = _toy_data(rng)
        saab = SAAB(_mei_factory(hidden=8), SAABConfig(n_learners=1, compare_bits=4, seed=0))
        saab.extend(x, y, 1, fast_train)
        learner = saab.learners[0]
        from repro.quant.binarray import msb_match

        correct = msb_match(
            learner.predict_bits(x), learner.target_bits(y), 8, 4
        )
        if correct.any() and (~correct).any() and saab.alphas[0] > 0:
            assert saab._weights[~correct].mean() > saab._weights[correct].mean()


class TestPruning:
    @pytest.fixture
    def trained_mei(self, rng, fast_train):
        x, y = _toy_data(rng, n=500)
        mei = MEI(MEIConfig(2, 1, 16), seed=0).train(x, y, fast_train)
        return mei, x, y

    def _error_fn(self, x, y):
        return lambda mei: float(np.mean(np.abs(mei.predict(x) - y)))

    def test_input_pruning_respects_budget(self, trained_mei):
        mei, x, y = trained_mei
        error_fn = self._error_fn(x, y)
        base = error_fn(mei)
        result = prune_input_bits(mei, error_fn, max_error=base * 1.2)
        assert result.error <= base * 1.2
        assert 1 <= result.mei.in_bits <= 8

    def test_generous_budget_prunes_more(self, trained_mei):
        mei, x, y = trained_mei
        error_fn = self._error_fn(x, y)
        base = error_fn(mei)
        tight = prune_input_bits(mei, error_fn, max_error=base * 1.01)
        loose = prune_input_bits(mei, error_fn, max_error=0.5)
        assert loose.mei.in_bits <= tight.mei.in_bits

    def test_output_pruning_threshold_rule(self, trained_mei):
        """Only bits below the sqrt(mse) floor are candidates."""
        mei, x, y = trained_mei
        error_fn = self._error_fn(x, y)
        # With an (artificially) tiny MSE no bit qualifies for pruning.
        result = prune_output_bits(mei, error_fn, max_error=1.0, mse=1e-12)
        assert result.mei.out_bits == 8
        assert result.steps == 0

    def test_output_pruning_with_large_mse(self, trained_mei):
        mei, x, y = trained_mei
        error_fn = self._error_fn(x, y)
        result = prune_output_bits(mei, error_fn, max_error=0.5, mse=2.0**-10)
        assert result.mei.out_bits < 8

    def test_output_pruning_rejects_negative_mse(self, trained_mei):
        mei, x, y = trained_mei
        with pytest.raises(ValueError):
            prune_output_bits(mei, self._error_fn(x, y), max_error=0.5, mse=-1.0)

    def test_combined_pass_order(self, trained_mei):
        mei, x, y = trained_mei
        error_fn = self._error_fn(x, y)
        base = error_fn(mei)
        result = prune_lsbs(mei, error_fn, max_error=max(base * 1.1, 0.05),
                            mse=mei.mse(x, y))
        assert result.mei.in_bits <= 8
        assert result.mei.out_bits <= 8
        assert result.error <= max(base * 1.1, 0.05)

    def test_pruning_never_removes_all_bits(self, trained_mei):
        mei, x, y = trained_mei
        result = prune_lsbs(mei, lambda m: 0.0, max_error=1.0, mse=1.0)
        assert result.mei.in_bits >= 1
        assert result.mei.out_bits >= 1
