"""Targeted tests for internals: MNA analytics, DSE topology, runner."""

import numpy as np
import pytest

from repro.core.dse import _topology_of
from repro.core.mei import MEI, MEIConfig
from repro.core.runner import QUICK_SCALE, train_samples_for
from repro.core.saab import SAAB, SAABConfig
from repro.cost.area import MEITopology
from repro.nn.trainer import TrainConfig
from repro.xbar.mna import MNACrossbar


class TestMNAAnalytical:
    def test_single_cell_series_circuit(self):
        """A 1x1 crossbar is a 3-element series divider.

        source -- g (device) -- g_w (bitline wire) -- [T] -- g_s -- gnd
        => V_T = V * (1/g_s) / (1/g + 1/g_w + 1/g_s)
        """
        g, g_w, g_s, v = 5e-5, 1.0 / 3.0, 1e-3, 0.8
        mna = MNACrossbar(np.array([[g]]), g_s=g_s, wire_resistance=1.0 / g_w)
        expected = v * (1 / g_s) / (1 / g + 1 / g_w + 1 / g_s)
        solved = mna.solve(np.array([v]))[0, 0]
        assert solved == pytest.approx(expected, rel=1e-9)

    def test_zero_conductance_cell_passes_nothing(self):
        mna = MNACrossbar(np.array([[0.0]]), g_s=1e-3, wire_resistance=1.0)
        assert mna.solve(np.array([1.0]))[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_two_cell_column_superposes(self):
        """With huge wire conductance, two rows share one divider node."""
        g1, g2, g_s = 2e-5, 7e-5, 1e-3
        mna = MNACrossbar(np.array([[g1], [g2]]), g_s=g_s, wire_resistance=1e-9)
        v = np.array([0.5, 0.9])
        expected = (g1 * v[0] + g2 * v[1]) / (g_s + g1 + g2)
        assert mna.solve(v)[0, 0] == pytest.approx(expected, rel=1e-4)


class TestDSETopologyOf:
    def test_single_mei(self):
        mei = MEI(MEIConfig(2, 1, 8), seed=0)
        topo = _topology_of(mei)
        assert topo.in_ports == 16 and topo.hidden == 8

    def test_saab_scales_hidden(self, rng):
        x = rng.uniform(0, 1, (200, 2))
        y = 0.3 + 0.4 * x[:, :1]
        saab = SAAB(
            lambda k: MEI(MEIConfig(2, 1, 8), seed=k),
            SAABConfig(n_learners=2, seed=0),
        ).train(x, y, TrainConfig(epochs=5, batch_size=64, shuffle_seed=0))
        topo = _topology_of(saab)
        assert topo.hidden == 16  # 2 learners x 8
        assert topo.in_ports == 16

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            _topology_of(object())


class TestRunnerHelpers:
    def test_jmeint_gets_more_samples(self):
        assert train_samples_for("jmeint", QUICK_SCALE) == 4 * QUICK_SCALE.n_train

    def test_others_unchanged(self):
        for name in ("fft", "sobel", "jpeg"):
            assert train_samples_for(name, QUICK_SCALE) == QUICK_SCALE.n_train


class TestMEITopologyEdge:
    def test_single_bit_groups(self):
        topo = MEITopology(in_ports=3, hidden=4, out_ports=2, in_groups=3, out_groups=2)
        assert topo.in_bits == 1 and topo.out_bits == 1
        assert str(topo) == "(3.1)x4x(2.1)"


class TestRepeatWithSeeds:
    def test_statistics(self):
        from repro.core.runner import repeat_with_seeds

        mean, std, values = repeat_with_seeds(lambda s: float(s * 2), [1, 2, 3])
        assert mean == 4.0
        assert len(values) == 3
        assert std > 0

    def test_requires_seeds(self):
        import pytest as _pytest

        from repro.core.runner import repeat_with_seeds

        with _pytest.raises(ValueError):
            repeat_with_seeds(lambda s: 0.0, [])
