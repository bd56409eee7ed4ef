"""Unit tests for the RRAM device, variation and programming models."""

import numpy as np
import pytest

from repro.device.programming import ProgrammingConfig, program_conductances
from repro.device.rram import HFOX_DEVICE, RRAMDevice
from repro.device.variation import IDEAL, NonIdealFactors, lognormal_factors


class TestRRAMDevice:
    def test_default_device_bounds(self):
        assert HFOX_DEVICE.g_min == 1e-7
        assert HFOX_DEVICE.g_max == 1e-4
        assert HFOX_DEVICE.dynamic_range == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            RRAMDevice(r_on=-1)
        with pytest.raises(ValueError):
            RRAMDevice(r_on=1e6, r_off=1e4)
        with pytest.raises(ValueError):
            RRAMDevice(levels=-1)

    def test_cell_area_4f2(self):
        device = RRAMDevice(feature_nm=90.0)
        assert np.isclose(device.cell_area_um2, 4 * 0.09 * 0.09)

    def test_clip_conductance(self):
        g = HFOX_DEVICE.clip_conductance(np.array([0.0, 1.0]))
        assert g[0] == HFOX_DEVICE.g_min
        assert g[1] == HFOX_DEVICE.g_max

    def test_discretize_continuous_passthrough(self, rng):
        g = rng.uniform(HFOX_DEVICE.g_min, HFOX_DEVICE.g_max, 20)
        assert np.allclose(HFOX_DEVICE.discretize(g), g)

    def test_discretize_levels(self):
        device = RRAMDevice(levels=3)
        mid = (device.g_min + device.g_max) / 2
        snapped = device.discretize(np.array([device.g_min, mid, device.g_max]))
        assert np.allclose(snapped, [device.g_min, mid, device.g_max])
        # An off-grid value lands on a grid point.
        off = device.discretize(np.array([device.g_min * 1.5]))
        step = (device.g_max - device.g_min) / 2
        assert np.isclose((off[0] - device.g_min) % step, 0.0, atol=1e-15)

    def test_discretize_single_level(self):
        device = RRAMDevice(levels=1)
        assert np.all(device.discretize(np.array([1e-5, 5e-5])) == device.g_min)

    def test_weight_to_conductance_range(self):
        g = HFOX_DEVICE.weight_to_conductance(np.array([0.0, 0.5, 1.0, 2.0]))
        assert g[0] == HFOX_DEVICE.g_min
        assert g[2] == HFOX_DEVICE.g_max
        assert g[3] == HFOX_DEVICE.g_max  # clipped
        assert HFOX_DEVICE.g_min < g[1] < HFOX_DEVICE.g_max


class TestNonIdealFactors:
    def test_ideal_flag(self):
        assert IDEAL.is_ideal
        assert not NonIdealFactors(sigma_pv=0.1).is_ideal

    def test_validation(self):
        with pytest.raises(ValueError):
            NonIdealFactors(sigma_pv=-0.1)

    def test_zero_sigma_identity(self, rng):
        g = rng.uniform(1e-6, 1e-4, (4, 5))
        assert np.array_equal(g * lognormal_factors(g.shape, IDEAL.sigma_pv, rng), g)
        assert np.array_equal(g * lognormal_factors(g.shape, IDEAL.sigma_sf, rng), g)

    def test_seeded_trials_reproducible(self, rng):
        noise = NonIdealFactors(sigma_pv=0.2, seed=5)
        g = rng.uniform(1e-6, 1e-4, (4, 5))
        a = g * lognormal_factors(g.shape, noise.sigma_pv, noise.rng(trial=3))
        b = g * lognormal_factors(g.shape, noise.sigma_pv, noise.rng(trial=3))
        c = g * lognormal_factors(g.shape, noise.sigma_pv, noise.rng(trial=4))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_lognormal_median_near_one(self):
        factors = lognormal_factors(100_000, sigma=0.3, rng=0)
        assert np.isclose(np.median(factors), 1.0, atol=0.02)

    def test_lognormal_sigma_scales_spread(self):
        small = lognormal_factors(50_000, sigma=0.05, rng=0)
        large = lognormal_factors(50_000, sigma=0.4, rng=0)
        assert np.std(np.log(large)) > np.std(np.log(small))

    def test_lognormal_validation(self):
        with pytest.raises(ValueError):
            lognormal_factors(10, sigma=-0.1)

    def test_multiplicative_noise_preserves_zero(self):
        noise = NonIdealFactors(sigma_sf=0.5, seed=0)
        signal = np.zeros((10, 10))
        factors = lognormal_factors(signal.shape, noise.sigma_sf, noise.rng())
        assert np.array_equal(signal * factors, signal)

    def test_with_seed(self):
        noise = NonIdealFactors(sigma_pv=0.1, seed=1)
        assert noise.with_seed(9).seed == 9
        assert noise.with_seed(9).sigma_pv == 0.1


class TestProgramming:
    def test_converges_to_targets(self, rng):
        targets = rng.uniform(HFOX_DEVICE.g_min * 10, HFOX_DEVICE.g_max, (8, 8))
        result = program_conductances(targets, HFOX_DEVICE, ProgrammingConfig(seed=0))
        assert result.yield_fraction > 0.9
        assert result.max_relative_error < 0.2

    def test_tighter_tolerance_needs_more_pulses(self, rng):
        targets = rng.uniform(HFOX_DEVICE.g_min * 10, HFOX_DEVICE.g_max, (10, 10))
        loose = program_conductances(targets, HFOX_DEVICE,
                                     ProgrammingConfig(tolerance=0.1, seed=0))
        tight = program_conductances(targets, HFOX_DEVICE,
                                     ProgrammingConfig(tolerance=0.005, seed=0))
        assert tight.mean_iterations > loose.mean_iterations

    def test_respects_device_window(self, rng):
        targets = rng.uniform(HFOX_DEVICE.g_min, HFOX_DEVICE.g_max, (5, 5))
        result = program_conductances(targets, HFOX_DEVICE, ProgrammingConfig(seed=1))
        assert np.all(result.conductances >= HFOX_DEVICE.g_min)
        assert np.all(result.conductances <= HFOX_DEVICE.g_max)

    def test_zero_pulse_noise_converges_immediately(self, rng):
        targets = rng.uniform(HFOX_DEVICE.g_min * 10, HFOX_DEVICE.g_max, (4, 4))
        result = program_conductances(
            targets, HFOX_DEVICE, ProgrammingConfig(pulse_sigma=0.0, seed=0)
        )
        assert result.yield_fraction == 1.0
        assert np.all(result.iterations <= 1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProgrammingConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            ProgrammingConfig(max_iterations=0)
        with pytest.raises(ValueError):
            ProgrammingConfig(pulse_sigma=-1.0)
