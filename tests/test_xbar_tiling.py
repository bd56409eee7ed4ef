"""Tests for tiled crossbars (tall-matrix realization)."""

import numpy as np
import pytest

from repro.device.rram import RRAMDevice
from repro.device.variation import pv_factor_stacks
from repro.xbar.mapping import DifferentialCrossbar, MappingConfig
from repro.xbar.tiling import TiledDifferentialCrossbar
from tests import reference_chain as oracle


class TestTiling:
    def test_matches_untiled_product(self, rng):
        weights = rng.normal(0, 1, (50, 6))
        tiled = TiledDifferentialCrossbar(weights, max_rows=16)
        x = rng.uniform(0, 1, (7, 50))
        ideal = x @ weights
        scale = max(float(np.max(np.abs(ideal))), 1e-12)
        assert np.max(np.abs(tiled.apply(x) - ideal)) / scale < 1e-9

    def test_pv_draw_is_one_stream_across_tiles(self, rng):
        """One trial's generator draws every tile's PV, tile after tile."""
        tiled = TiledDifferentialCrossbar(rng.normal(size=(40, 3)), max_rows=16)
        x = rng.uniform(0, 1, (5, 40))
        (factors,) = pv_factor_stacks([tiled], 0.1, [np.random.default_rng(4)])
        expected = oracle.layer_output(tiled, x, 0.1, np.random.default_rng(4))
        assert np.array_equal(tiled.apply_trials(x[None], factors)[0], expected)

    def test_tile_count(self, rng):
        tiled = TiledDifferentialCrossbar(rng.normal(size=(50, 4)), max_rows=16)
        assert tiled.n_tiles == 4  # 16+16+16+2

    def test_single_tile_when_small(self, rng):
        tiled = TiledDifferentialCrossbar(rng.normal(size=(8, 4)), max_rows=16)
        assert tiled.n_tiles == 1

    def test_device_count_preserved(self, rng):
        weights = rng.normal(size=(40, 5))
        tiled = TiledDifferentialCrossbar(weights, max_rows=16)
        untiled = DifferentialCrossbar(weights)
        assert tiled.device_count == untiled.device_count

    def test_enables_otherwise_infeasible_arrays(self, rng):
        """A fan-in that blows the column-sum headroom works tiled."""
        config = MappingConfig(g_s=1e-3, row_sum_headroom=0.5,
                               coefficient_ceiling=0.05)
        device = RRAMDevice(r_on=1e4, r_off=1e5)  # base coeff 1e-2/row
        weights = rng.normal(size=(100, 3))
        with pytest.raises(ValueError):
            DifferentialCrossbar(weights, config=config, device=device)
        tiled = TiledDifferentialCrossbar(weights, max_rows=20, config=config,
                                          device=device)
        x = rng.uniform(0, 1, (4, 100))
        ideal = x @ weights
        scale = float(np.max(np.abs(ideal)))
        assert np.max(np.abs(tiled.apply(x) - ideal)) / scale < 1e-9

    def test_ceiling_exhaustion_raises_clearly(self, rng):
        """Base coefficient at the ceiling must error, not emit NaNs."""
        config = MappingConfig(g_s=1e-3, coefficient_ceiling=0.01)
        device = RRAMDevice(r_on=1e4, r_off=1e5)  # base = ceiling = 0.01
        with pytest.raises(ValueError, match="ceiling"):
            DifferentialCrossbar(rng.normal(size=(4, 2)), config=config,
                                 device=device)

    def test_noise_propagates_to_tiles(self, rng):
        weights = rng.normal(size=(30, 4))
        tiled = TiledDifferentialCrossbar(weights, max_rows=10)
        x = rng.uniform(0, 1, (3, 30))
        (factors,) = pv_factor_stacks([tiled], 0.2, [np.random.default_rng(1)])
        assert not np.allclose(tiled.apply_trials(x[None], factors)[0], tiled.apply(x))

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            TiledDifferentialCrossbar(rng.normal(size=(10,)), max_rows=4)
        with pytest.raises(ValueError):
            TiledDifferentialCrossbar(rng.normal(size=(10, 2)), max_rows=0)
        tiled = TiledDifferentialCrossbar(rng.normal(size=(10, 2)), max_rows=4)
        with pytest.raises(ValueError):
            tiled.apply(np.zeros((1, 7)))
