"""Coverage for the RNG-discipline helpers (ensure_rng / fresh_rng)."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.parallel.seeding import derive_seed, ensure_rng, fresh_rng


class _ListHandler(logging.Handler):
    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture
def repro_log():
    """Capture repro.* log records (the repro logger never propagates)."""
    from repro.obs.log import get_logger

    get_logger("parallel.seeding")  # force configuration first
    logger = logging.getLogger("repro")
    handler = _ListHandler()
    old_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield handler.records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(old_level)


def _seed_records(records):
    return [r for r in records if r.getMessage() == "fresh rng drawn"]


class TestEnsureRng:
    def test_generator_passes_through_identically(self):
        rng = np.random.default_rng(7)
        assert ensure_rng(rng) is rng

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(123).normal(size=8)
        b = ensure_rng(123).normal(size=8)
        np.testing.assert_array_equal(a, b)

    def test_numpy_integer_seed_accepted(self):
        a = ensure_rng(np.int64(5)).normal(size=4)
        b = ensure_rng(5).normal(size=4)
        np.testing.assert_array_equal(a, b)

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(11)
        a = ensure_rng(seq).normal(size=4)
        b = ensure_rng(np.random.SeedSequence(11)).normal(size=4)
        np.testing.assert_array_equal(a, b)

    def test_none_yields_usable_generator(self):
        rng = ensure_rng(None, "test")
        assert isinstance(rng, np.random.Generator)
        assert rng.normal(size=3).shape == (3,)


class TestFreshRng:
    def test_logs_the_drawn_seed(self, repro_log):
        fresh_rng("unit-test")
        records = _seed_records(repro_log)
        assert records, "fresh_rng must log its seed"
        fields = records[-1].fields
        assert fields["label"] == "unit-test"
        assert isinstance(fields["seed"], int)

    def test_logged_seed_replays_the_stream(self, repro_log):
        rng = fresh_rng("replay")
        drawn = rng.normal(size=16)
        seed = _seed_records(repro_log)[-1].fields["seed"]
        replayed = np.random.default_rng(seed).normal(size=16)
        np.testing.assert_array_equal(drawn, replayed)

    def test_distinct_calls_yield_distinct_streams(self):
        a = fresh_rng().normal(size=8)
        b = fresh_rng().normal(size=8)
        assert not np.array_equal(a, b)


class TestCallSites:
    """The migrated fallbacks keep their deterministic seeded paths."""

    def test_dense_layer_seeded_init_unchanged(self):
        from repro.nn.layers import DenseLayer

        w1 = DenseLayer(4, 3, rng=np.random.default_rng(0)).weights
        w2 = DenseLayer(4, 3, rng=np.random.default_rng(0)).weights
        np.testing.assert_array_equal(w1, w2)

    def test_mlp_accepts_int_seed(self):
        from repro.nn.network import MLP

        a = MLP((2, 4, 1), rng=3).layers[0].weights
        b = MLP((2, 4, 1), rng=3).layers[0].weights
        np.testing.assert_array_equal(a, b)

    def test_unseeded_nonideal_factors_replayable_from_log(self, repro_log):
        from repro.core.deploy import AnalogMLP
        from repro.device.variation import NonIdealFactors
        from repro.nn.network import MLP

        net = MLP((3, 4, 2), rng=0)
        chip = AnalogMLP(net).freeze_variation(NonIdealFactors(sigma_pv=0.1))
        seed = _seed_records(repro_log)[-1].fields["seed"]
        replay = AnalogMLP(net).freeze_variation(NonIdealFactors(sigma_pv=0.1, seed=seed))
        for ours, theirs in zip(chip.arrays(), replay.arrays()):
            np.testing.assert_array_equal(ours.conductances, theirs.conductances)

    def test_comparator_unseeded_draw_is_logged(self, repro_log):
        from repro.analog.periphery import Comparator

        comp = Comparator(offset_sigma=0.05)
        comp.apply(np.linspace(0, 1, 9))
        labels = [r.fields["label"] for r in _seed_records(repro_log)]
        assert "analog.Comparator" in labels

    def test_zero_sigma_draws_no_entropy(self, repro_log):
        from repro.device.variation import lognormal_factors

        out = lognormal_factors((4,), 0.0, None)
        np.testing.assert_array_equal(out, np.ones(4))
        assert not _seed_records(repro_log)


def test_derive_seed_still_pure():
    assert derive_seed(0, 3) == derive_seed(0, 3)
    with pytest.raises(ValueError):
        derive_seed(0, -1)
