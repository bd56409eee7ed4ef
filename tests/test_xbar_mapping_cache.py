"""The weight->conductance mapping cache.

Re-deploying the same trained weights (MC trials, fault campaigns,
sweep repeats) must reuse the solved mapping — bit-for-bit — while
fault injection on one deployment stays isolated from every other.
"""

import numpy as np
import pytest

from repro.device.rram import HFOX_DEVICE, RRAMDevice
from repro.obs import metrics as obs_metrics
from repro.xbar import mapping
from repro.xbar.mapping import (
    MAPPING_CACHE_CAPACITY,
    DifferentialCrossbar,
    MappingConfig,
    clear_mapping_cache,
    map_matrix,
    mapping_cache_size,
)


@pytest.fixture(autouse=True)
def _cold_cache():
    clear_mapping_cache()
    yield
    clear_mapping_cache()


def _weights(seed=0, shape=(6, 4)):
    return np.random.default_rng(seed).uniform(-1, 1, shape)


def _counter(name):
    return obs_metrics.counter(name).value


class TestHitMiss:
    def test_second_deploy_hits(self):
        w = _weights()
        map_matrix(w)
        assert _counter("mapping_cache_misses") == 1
        map_matrix(w)
        assert _counter("mapping_cache_hits") == 1
        assert mapping_cache_size() == 1

    def test_hit_is_bit_identical(self):
        w = _weights()
        first = map_matrix(w)
        second = map_matrix(w)
        assert second.scale == first.scale
        assert np.array_equal(second.positive.conductances, first.positive.conductances)
        assert np.array_equal(second.negative.conductances, first.negative.conductances)

    def test_different_weights_miss(self):
        map_matrix(_weights(0))
        map_matrix(_weights(1))
        assert _counter("mapping_cache_misses") == 2
        assert _counter("mapping_cache_hits") == 0

    def test_config_participates_in_key(self):
        w = _weights()
        map_matrix(w, config=MappingConfig())
        map_matrix(w, config=MappingConfig(row_sum_headroom=0.4))
        assert _counter("mapping_cache_misses") == 2

    def test_device_participates_in_key(self):
        w = _weights()
        other = RRAMDevice(
            r_on=HFOX_DEVICE.r_on * 0.5,
            r_off=HFOX_DEVICE.r_off,
            levels=HFOX_DEVICE.levels,
        )
        map_matrix(w, device=HFOX_DEVICE)
        map_matrix(w, device=other)
        assert _counter("mapping_cache_misses") == 2

    def test_same_bytes_different_shape_miss(self):
        w = _weights(shape=(6, 4))
        map_matrix(w)
        map_matrix(w.reshape(4, 6))
        assert _counter("mapping_cache_misses") == 2


class TestIsolation:
    def test_mutating_one_deployment_does_not_leak(self):
        w = _weights()
        first = map_matrix(w)
        baseline = first.positive.conductances.copy()
        first.positive.conductances = np.zeros_like(baseline)  # fault injection
        second = map_matrix(w)
        assert np.array_equal(second.positive.conductances, baseline)

    def test_caller_mutating_weights_after_deploy_is_safe(self):
        w = _weights()
        first = map_matrix(w)
        w_snapshot = w.copy()
        w[0, 0] += 1.0
        second = map_matrix(w)  # new key: real re-solve, not a stale hit
        assert _counter("mapping_cache_misses") == 2
        third = map_matrix(w_snapshot)
        assert np.array_equal(third.positive.conductances, first.positive.conductances)


class TestLifecycle:
    def test_clear_empties_cache(self):
        map_matrix(_weights())
        assert mapping_cache_size() == 1
        clear_mapping_cache()
        assert mapping_cache_size() == 0

    def test_capacity_is_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(mapping, "MAPPING_CACHE_CAPACITY", 3)
        for seed in range(5):
            map_matrix(_weights(seed, shape=(3, 2)))
        assert mapping_cache_size() == 3
        # seed 0 and 1 were evicted; re-deploying them misses again.
        map_matrix(_weights(0, shape=(3, 2)))
        assert _counter("mapping_cache_hits") == 0
        # seed 4 is still resident.
        map_matrix(_weights(4, shape=(3, 2)))
        assert _counter("mapping_cache_hits") == 1

    def test_capacity_constant_is_sane(self):
        assert MAPPING_CACHE_CAPACITY >= 16

    def test_direct_constructor_also_cached(self):
        w = _weights()
        DifferentialCrossbar(w)
        DifferentialCrossbar(w)
        assert _counter("mapping_cache_hits") == 1
