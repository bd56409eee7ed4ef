"""Unit tests for crossbar models: Eq. 1-2, mapping inversion, MNA.

The key cross-validation lives here: the behavioural (column-sum)
Eq. 2 model must agree with the MNA circuit solver in the vanishing-
wire-resistance limit, which pins down our reading of the paper's
ambiguous Eq. 2 subscripts.
"""

import numpy as np
import pytest

from repro.device.rram import HFOX_DEVICE, RRAMDevice
from repro.device.variation import pv_factor_stacks
from repro.xbar.crossbar import Crossbar, coefficients_from_conductance
from repro.xbar.ir_drop import IRDropPoint, sweep_ir_drop, wire_resistance_for_node
from repro.xbar.mapping import DifferentialCrossbar, MappingConfig, solve_conductances
from repro.xbar.mna import MNACrossbar


class TestCoefficients:
    def test_column_sum_normalization(self):
        g = np.array([[1e-5, 2e-5], [3e-5, 4e-5]])
        c = coefficients_from_conductance(g, g_s=1e-3)
        expected = g / (1e-3 + g.sum(axis=0, keepdims=True))
        assert np.allclose(c, expected)

    def test_coefficients_below_one(self, rng):
        g = rng.uniform(HFOX_DEVICE.g_min, HFOX_DEVICE.g_max, (16, 8))
        c = coefficients_from_conductance(g, g_s=1e-3)
        assert np.all(c.sum(axis=0) < 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            coefficients_from_conductance(np.zeros(4), g_s=1e-3)
        with pytest.raises(ValueError):
            coefficients_from_conductance(-np.ones((2, 2)), g_s=1e-3)
        with pytest.raises(ValueError):
            coefficients_from_conductance(np.ones((2, 2)), g_s=0.0)


class TestCrossbar:
    def test_apply_matches_matrix_product(self, rng):
        g = rng.uniform(HFOX_DEVICE.g_min, HFOX_DEVICE.g_max, (6, 4))
        xbar = Crossbar(g, g_s=1e-3)
        v = rng.uniform(0, 1, (3, 6))
        assert np.allclose(xbar.apply(v), v @ xbar.coefficients())

    def test_input_dim_validation(self, rng):
        xbar = Crossbar(rng.uniform(1e-6, 1e-4, (4, 2)), g_s=1e-3)
        with pytest.raises(ValueError):
            xbar.apply(np.zeros((1, 5)))

    def test_pv_perturbs_coefficients(self, rng):
        g = rng.uniform(HFOX_DEVICE.g_min, HFOX_DEVICE.g_max, (5, 5))
        xbar = Crossbar(g, g_s=1e-3)
        (factors,) = pv_factor_stacks([xbar], 0.3, [np.random.default_rng(0)])
        # Unit input vectors read the coefficient matrix out row by row.
        c_noisy = xbar.apply_trials(np.eye(5)[None], factors)[0]
        assert not np.allclose(c_noisy, xbar.coefficients())

    def test_conductances_snapped_to_device(self):
        device = RRAMDevice(levels=2)
        g = np.full((2, 2), (device.g_min + device.g_max) / 2)
        xbar = Crossbar(g, g_s=1e-3, device=device)
        assert set(np.unique(xbar.conductances)) <= {device.g_min, device.g_max}


class TestMapping:
    def test_solve_inverts_eq2_exactly(self, rng):
        c_target = rng.uniform(0.001, 0.01, (8, 4))
        g = solve_conductances(c_target, g_s=1e-3, device=HFOX_DEVICE)
        assert np.allclose(coefficients_from_conductance(g, 1e-3), c_target)

    def test_solve_rejects_infeasible_columns(self):
        c = np.full((4, 1), 0.3)  # column sum 1.2 >= 1
        with pytest.raises(ValueError):
            solve_conductances(c, g_s=1e-3, device=HFOX_DEVICE)

    def test_solve_rejects_negative(self):
        with pytest.raises(ValueError):
            solve_conductances(-np.ones((2, 2)) * 0.001, g_s=1e-3, device=HFOX_DEVICE)

    @pytest.mark.parametrize("shape", [(4, 3), (32, 16), (100, 10)])
    def test_differential_pair_is_exact(self, shape, rng):
        weights = rng.normal(0, 1.5, shape)
        pair = DifferentialCrossbar(weights)
        x = rng.uniform(0, 1, (5, shape[0]))
        ideal = x @ weights
        scale = max(np.max(np.abs(ideal)), 1e-12)
        assert np.max(np.abs(pair.apply(x) - ideal)) / scale < 1e-10

    def test_differential_device_count(self, rng):
        pair = DifferentialCrossbar(rng.normal(size=(6, 3)))
        assert pair.device_count == 2 * 6 * 3

    def test_all_negative_weights(self, rng):
        weights = -np.abs(rng.normal(0, 1, (5, 2)))
        pair = DifferentialCrossbar(weights)
        x = rng.uniform(0, 1, (3, 5))
        assert np.allclose(pair.apply(x), x @ weights, atol=1e-9)

    def test_zero_weight_matrix(self):
        pair = DifferentialCrossbar(np.zeros((4, 2)))
        x = np.random.default_rng(0).uniform(0, 1, (3, 4))
        assert np.allclose(pair.apply(x), 0.0, atol=1e-9)

    def test_pv_noise_changes_output(self, rng):
        pair = DifferentialCrossbar(rng.normal(size=(6, 3)))
        x = rng.uniform(0, 1, (2, 6))
        (factors,) = pv_factor_stacks([pair], 0.2, [np.random.default_rng(1)])
        assert not np.allclose(pair.apply_trials(x[None], factors)[0], pair.apply(x))

    def test_too_many_rows_raises(self):
        # Base coefficient times rows must stay under the headroom.
        config = MappingConfig(g_s=1e-3, row_sum_headroom=0.5)
        device = RRAMDevice(r_on=1e4, r_off=1e5)  # g_min/g_s = 1e-2
        with pytest.raises(ValueError):
            DifferentialCrossbar(np.ones((100, 2)), config=config, device=device)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MappingConfig(g_s=0.0)
        with pytest.raises(ValueError):
            MappingConfig(row_sum_headroom=1.0)
        with pytest.raises(ValueError):
            MappingConfig(coefficient_ceiling=0.0)


class TestKirchhoffOracle:
    """A 2x2 array solved by hand from Kirchhoff's current law.

    Bitline j collects ``sum_i g_ij (V_i - V_j)`` from its cells and
    sinks ``g_s V_j`` into the load, so
    ``V_j = sum_i g_ij V_i / (g_s + sum_i g_ij)`` (Eq. 1-2, column sum).
    With g = [[2, 5], [4, 3]] x 1e-5 S, g_s = 1e-4 S and V = (0.3, 0.8):

    * column 0: (0.6 + 3.2) / (10 + 6) = 3.8 / 16 = 19/80;
    * column 1: (1.5 + 2.4) / (10 + 8) = 3.9 / 18 = 13/60.

    The row sums are equal (7e-5 each), so a row-sum reading of Eq. 2
    would give different numbers.
    """

    G = np.array([[2e-5, 5e-5], [4e-5, 3e-5]])
    G_S = 1e-4
    V = np.array([0.3, 0.8])
    COEFFICIENTS = np.array([[2 / 16, 5 / 18], [4 / 16, 3 / 18]])
    OUTPUTS = np.array([19 / 80, 13 / 60])

    def test_coefficients(self):
        c = coefficients_from_conductance(self.G, self.G_S)
        np.testing.assert_allclose(c, self.COEFFICIENTS, rtol=1e-15, atol=0)

    def test_crossbar_apply(self):
        out = Crossbar(self.G, self.G_S).apply(self.V)
        np.testing.assert_allclose(out[0], self.OUTPUTS, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("solver", ["lu", "banded"])
    def test_mna_at_vanishing_wire_resistance(self, solver):
        """1e-9 ohm wires: the hand solution to the conditioning of the solve.

        A wire conductance of 1e9 S beside 1e-5 S cells puts ~14 decades
        into one float64 system, so the solve keeps only ~3 significant
        digits (measured: 2.1e-3 relative for LU, 1.5e-3 for banded).
        """
        out = MNACrossbar(self.G, self.G_S, wire_resistance=1e-9, solver=solver).solve(self.V)
        np.testing.assert_allclose(out[0], self.OUTPUTS, rtol=1e-2, atol=0)

    @pytest.mark.parametrize("solver", ["lu", "banded"])
    def test_mna_at_small_wire_resistance(self, solver):
        """1e-3 ohm wires: IR drop, first order in r * g, bounds the gap.

        Each path crosses a few wire segments, so the outputs move by
        about r * (g_s + column sum) = 1.8e-7 relative; the bound allows
        ten times that (measured: 7e-8).
        """
        out = MNACrossbar(self.G, self.G_S, wire_resistance=1e-3, solver=solver).solve(self.V)
        np.testing.assert_allclose(out[0], self.OUTPUTS, rtol=1.8e-6, atol=0)


class TestMNA:
    def test_converges_to_ideal_model(self, rng):
        """The Eq. 2 column-sum reading must be the g_w -> inf limit."""
        g = rng.uniform(HFOX_DEVICE.g_min, HFOX_DEVICE.g_max, (8, 5))
        mna = MNACrossbar(g, g_s=1e-3, wire_resistance=1e-9)
        v = rng.uniform(0, 1, (4, 8))
        assert np.allclose(mna.solve(v), mna.ideal_outputs(v), atol=1e-4)

    def test_ir_drop_grows_with_wire_resistance(self, rng):
        g = rng.uniform(HFOX_DEVICE.g_min, HFOX_DEVICE.g_max, (16, 16))
        v = rng.uniform(0, 1, (4, 16))
        small = MNACrossbar(g, g_s=1e-3, wire_resistance=0.5).ir_drop_error(v)
        large = MNACrossbar(g, g_s=1e-3, wire_resistance=50.0).ir_drop_error(v)
        assert large > small

    def test_ir_drop_reduces_outputs(self, rng):
        # Wire resistance only drops potential: outputs can't exceed ideal.
        g = rng.uniform(HFOX_DEVICE.g_min, HFOX_DEVICE.g_max, (10, 10))
        v = rng.uniform(0, 1, (2, 10))
        mna = MNACrossbar(g, g_s=1e-3, wire_resistance=20.0)
        assert np.all(mna.solve(v) <= mna.ideal_outputs(v) + 1e-12)

    def test_single_input_superposition(self, rng):
        """Linear network: solving a batch equals solving rows separately."""
        g = rng.uniform(HFOX_DEVICE.g_min, HFOX_DEVICE.g_max, (5, 3))
        mna = MNACrossbar(g, g_s=1e-3, wire_resistance=2.0)
        v = rng.uniform(0, 1, (3, 5))
        batch = mna.solve(v)
        singles = np.vstack([mna.solve(v[i]) for i in range(3)])
        assert np.allclose(batch, singles)

    def test_validation(self):
        with pytest.raises(ValueError):
            MNACrossbar(np.ones(3), g_s=1e-3)
        with pytest.raises(ValueError):
            MNACrossbar(-np.ones((2, 2)), g_s=1e-3)
        with pytest.raises(ValueError):
            MNACrossbar(np.ones((2, 2)) * 1e-5, g_s=0.0)
        with pytest.raises(ValueError):
            MNACrossbar(np.ones((2, 2)) * 1e-5, g_s=1e-3, wire_resistance=0.0)

    def test_input_dim_validation(self, rng):
        mna = MNACrossbar(rng.uniform(1e-6, 1e-4, (4, 2)), g_s=1e-3)
        with pytest.raises(ValueError):
            mna.solve(np.zeros((1, 7)))


class TestIRDropSweep:
    def test_error_grows_with_size(self):
        points = sweep_ir_drop(sizes=[4, 32], wire_resistances=[5.0], n_vectors=4, seed=0)
        by_size = {p.size: p.relative_error for p in points}
        assert by_size[32] > by_size[4]

    def test_node_table(self):
        assert wire_resistance_for_node(90) == 2.0
        assert wire_resistance_for_node(22) > wire_resistance_for_node(90)
        with pytest.raises(ValueError):
            wire_resistance_for_node(7)

    def test_rejects_tiny_arrays(self):
        with pytest.raises(ValueError):
            sweep_ir_drop(sizes=[1], wire_resistances=[1.0])

    def test_point_fields(self):
        (point,) = sweep_ir_drop(sizes=[4], wire_resistances=[2.0], n_vectors=2, seed=1)
        assert isinstance(point, IRDropPoint)
        assert point.size == 4
        assert point.mean_abs_error >= 0.0


class TestMapMatrixHelper:
    def test_equivalent_to_constructor(self, rng):
        from repro.xbar.mapping import map_matrix

        weights = rng.normal(size=(6, 3))
        x = rng.uniform(0, 1, (4, 6))
        via_helper = map_matrix(weights).apply(x)
        via_ctor = DifferentialCrossbar(weights).apply(x)
        assert np.allclose(via_helper, via_ctor)

    def test_forwards_config(self, rng):
        from repro.xbar.mapping import map_matrix

        pair = map_matrix(
            rng.normal(size=(4, 2)), config=MappingConfig(input_nonlinearity=2.0)
        )
        assert pair.positive.nonlinearity == 2.0
