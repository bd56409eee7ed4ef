"""The memoized Eq. 2 coefficients of a programmed crossbar.

``Crossbar.coefficients()`` is computed once per programming: every
conductance writer assigns a fresh array, which drops the memo, and an
in-place write cannot happen because the stored array is read-only.
After each writer the memo must equal a fresh Eq. 2 evaluation bit for
bit.
"""

import copy

import numpy as np
import pytest

from repro.config import dtype as cfg_dtype
from repro.core.deploy import AnalogMLP
from repro.device.faults import FaultModel, inject_faults, inject_faults_analog_report
from repro.device.programming import ProgrammingConfig
from repro.device.variation import NonIdealFactors
from repro.nn.network import MLP
from repro.xbar.crossbar import coefficients_from_conductance, effective_conductances
from repro.xbar.mapping import MappingConfig, clear_mapping_cache

WIRED = MappingConfig(wire_resistance=2.0)
FAULTS = FaultModel(stuck_on_rate=0.05, stuck_off_rate=0.05, seed=3)


def _fresh(array):
    g = effective_conductances(array.conductances, array.wire_resistance)
    return coefficients_from_conductance(g, array.g_s)


def _memoize(analog):
    """Fill every array's memo, so a stale one would show after a write."""
    for array in analog.arrays():
        array.coefficients()


def _assert_fresh(analog):
    for array in analog.arrays():
        assert np.array_equal(array.coefficients(), _fresh(array))


@pytest.fixture
def analog():
    clear_mapping_cache()
    deployed = AnalogMLP(MLP((6, 5, 3), rng=0), WIRED)
    _memoize(deployed)
    return deployed


class TestWritersDropTheMemo:
    def test_inject_faults(self, analog):
        before = [array.coefficients() for array in analog.arrays()]
        inject_faults(analog.crossbars[0].positive, FAULTS, rng=np.random.default_rng(0))
        _assert_fresh(analog)
        assert not np.array_equal(analog.crossbars[0].positive.coefficients(), before[0])

    def test_restore_conductances(self, analog):
        snapshot = analog.conductance_snapshot()
        inject_faults_analog_report(analog, FAULTS)
        _assert_fresh(analog)  # the memo now holds the faulted chip
        faulted = [array.coefficients() for array in analog.arrays()]
        analog.restore_conductances(snapshot)
        _assert_fresh(analog)
        assert not all(np.array_equal(a.coefficients(), c)
                       for a, c in zip(analog.arrays(), faulted))

    def test_repair_with_spares(self, analog):
        pristine = analog.conductance_snapshot()
        report = inject_faults_analog_report(analog, FAULTS)
        _assert_fresh(analog)
        faulted = [array.coefficients() for array in analog.arrays()]
        analog.repair_with_spares(report.defect_maps, pristine, spares_per_array=2)
        _assert_fresh(analog)
        assert not all(np.array_equal(a.coefficients(), c)
                       for a, c in zip(analog.arrays(), faulted))

    def test_freeze_variation(self, analog):
        analog.freeze_variation(NonIdealFactors(sigma_pv=0.1, seed=4))
        _assert_fresh(analog)

    def test_write_verify_programming(self, analog):
        config = ProgrammingConfig(seed=5)
        for index, xbar in enumerate(analog.crossbars):
            AnalogMLP._program(xbar, config, index)
        _assert_fresh(analog)

    def test_programmed_deployment(self):
        clear_mapping_cache()
        programmed = AnalogMLP(MLP((6, 5, 3), rng=0), WIRED,
                               programming=ProgrammingConfig(seed=5))
        _assert_fresh(programmed)


class TestReadOnly:
    def test_in_place_conductance_write_raises(self, analog):
        array = analog.crossbars[0].positive
        with pytest.raises(ValueError, match="read-only"):
            array.conductances[0, 0] = array.device.g_max
        with pytest.raises(ValueError, match="read-only"):
            array.conductances *= 2.0

    def test_memo_is_read_only(self, analog):
        with pytest.raises(ValueError, match="read-only"):
            analog.crossbars[0].positive.coefficients()[0, 0] = 0.0

    def test_copies_stay_read_only(self, analog):
        array = copy.deepcopy(analog.crossbars[0].negative)
        with pytest.raises(ValueError, match="read-only"):
            array.conductances[0, 0] = 0.0
        assert np.array_equal(array.coefficients(), _fresh(array))


def test_memo_keeps_the_programmed_dtype(analog):
    """A programmed array keeps its dtype: switching ``REPRO_DTYPE``
    afterwards changes neither its conductances nor its memo."""
    array = analog.crossbars[1].positive
    before = array.coefficients()
    try:
        cfg_dtype.set_active_dtype("float32")
        assert array.conductances.dtype == np.float64
        assert array.coefficients() is before
        assert array.coefficients().dtype == np.float64
        assert np.array_equal(array.coefficients(), _fresh(array))
        # A reprogramming write is stored at the array's dtype too.
        array.conductances = array.conductances.astype(np.float32)
        assert array.conductances.dtype == np.float64
        assert np.array_equal(array.coefficients(), _fresh(array))
    finally:
        cfg_dtype.set_active_dtype(None)


def test_memo_serves_the_noise_free_mac(analog):
    pair = analog.crossbars[0]
    x = np.random.default_rng(1).uniform(0.0, 1.0, (1, 4, pair.in_dim))
    expected = (x @ _fresh(pair.positive) - x @ _fresh(pair.negative)) * pair.gain
    assert np.array_equal(pair.apply_trials(x), expected)
