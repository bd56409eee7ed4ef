"""Tests for static variation freezing and ICE inline calibration."""

import numpy as np
import pytest

from repro.core.calibration import ice_calibrate
from repro.core.deploy import AnalogMLP
from repro.core.mei import MEI, MEIConfig
from repro.device.variation import NonIdealFactors, lognormal_factors
from repro.nn.network import MLP
from repro.nn.trainer import TrainConfig, Trainer
from repro.xbar.mapping import MappingConfig


def _trained_net(rng, shape=(3, 8, 2)):
    net = MLP(shape, rng=0)
    x = rng.uniform(0, 1, (400, shape[0]))
    y = np.column_stack([
        0.2 + 0.5 * x[:, :1].mean(axis=1),
        0.3 + 0.4 * (x**2).mean(axis=1),
    ])[:, : shape[-1]]
    Trainer(config=TrainConfig(epochs=80, batch_size=64, shuffle_seed=0)).fit(net, x, y)
    return net, x, y


class TestFreezeVariation:
    def test_freeze_changes_outputs(self, rng):
        net, x, _ = _trained_net(rng)
        chip = AnalogMLP(net)
        before = chip.forward(x[:20])
        chip.freeze_variation(NonIdealFactors(sigma_pv=0.3, seed=1))
        after = chip.forward(x[:20])
        assert not np.allclose(before, after)

    def test_freeze_is_static(self, rng):
        net, x, _ = _trained_net(rng)
        chip = AnalogMLP(net).freeze_variation(NonIdealFactors(sigma_pv=0.3, seed=1))
        assert np.array_equal(chip.forward(x[:10]), chip.forward(x[:10]))

    def test_freeze_noop_without_pv(self, rng):
        net, x, _ = _trained_net(rng)
        chip = AnalogMLP(net)
        before = chip.forward(x[:10])
        chip.freeze_variation(NonIdealFactors(sigma_sf=0.5, seed=1))
        assert np.array_equal(chip.forward(x[:10]), before)

    def test_distinct_trials_give_distinct_chips(self, rng):
        net, x, _ = _trained_net(rng)
        noise = NonIdealFactors(sigma_pv=0.3, seed=1)
        a = AnalogMLP(net).freeze_variation(noise, trial=0).forward(x[:10])
        b = AnalogMLP(net).freeze_variation(noise, trial=1).forward(x[:10])
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("tile_rows, n_arrays", [(None, 4), (2, 12)])
    def test_freeze_matches_hand_loop(self, rng, tile_rows, n_arrays):
        # One generator per chip, one lognormal draw per array in the
        # canonical arrays() order (tiles included), then the device clip.
        net, _, _ = _trained_net(rng)
        noise = NonIdealFactors(sigma_pv=0.3, seed=4)
        config = MappingConfig(max_rows_per_tile=tile_rows)
        chip = AnalogMLP(net, mapping_config=config)
        targets = chip.conductance_snapshot()
        chip.freeze_variation(noise, trial=2)
        draw = np.random.default_rng(4 + 2)
        arrays = list(chip.arrays())
        assert len(arrays) == len(targets) == n_arrays
        for array, target in zip(arrays, targets):
            factors = lognormal_factors(target.shape, 0.3, draw)
            expected = array.device.clip_conductance(target * factors)
            np.testing.assert_array_equal(array.conductances, expected)


class TestIceCalibrate:
    def test_reduces_static_deviation(self, rng):
        net, x, _ = _trained_net(rng)
        reference = net.predict(x)
        chip = AnalogMLP(net).freeze_variation(NonIdealFactors(sigma_pv=0.3, seed=2))
        report = ice_calibrate(chip, reference, x)
        assert report.error_after < report.error_before
        assert 0 < report.improvement <= 1

    def test_correction_applied_at_inference(self, rng):
        net, x, _ = _trained_net(rng)
        chip = AnalogMLP(net).freeze_variation(NonIdealFactors(sigma_pv=0.3, seed=2))
        uncorrected = chip.forward(x[:30])
        ice_calibrate(chip, net.predict(x), x)
        corrected = chip.forward(x[:30])
        reference = net.predict(x[:30])
        assert np.mean(np.abs(corrected - reference)) < np.mean(
            np.abs(uncorrected - reference)
        )

    def test_ideal_chip_needs_no_correction(self, rng):
        net, x, _ = _trained_net(rng)
        chip = AnalogMLP(net)
        report = ice_calibrate(chip, net.predict(x), x)
        assert report.error_before < 1e-8
        assert np.allclose(report.gain, 1.0, atol=1e-4)
        assert np.allclose(report.offset, 0.0, atol=1e-4)

    def test_recalibration_discards_old_correction(self, rng):
        net, x, _ = _trained_net(rng)
        chip = AnalogMLP(net).freeze_variation(NonIdealFactors(sigma_pv=0.2, seed=3))
        first = ice_calibrate(chip, net.predict(x), x)
        second = ice_calibrate(chip, net.predict(x), x)
        # Same chip, same data: the fits must agree (not compound).
        assert np.allclose(first.gain, second.gain)
        assert np.allclose(first.offset, second.offset)

    def test_validation(self, rng):
        net, x, _ = _trained_net(rng)
        chip = AnalogMLP(net)
        with pytest.raises(ValueError):
            ice_calibrate(chip, net.predict(x)[:10], x)
        with pytest.raises(ValueError):
            ice_calibrate(chip, net.predict(x[:1]), x[:1])

    def test_mei_end_to_end_calibration(self, rng):
        """Calibrating a frozen MEI chip improves decoded accuracy."""
        x = rng.uniform(0, 1, (600, 2))
        y = 0.2 + 0.5 * (0.6 * x[:, :1] + 0.4 * x[:, 1:] ** 2)
        mei = MEI(MEIConfig(2, 1, 16), seed=0).train(
            x, y, TrainConfig(epochs=60, batch_size=64, shuffle_seed=0)
        )
        mei.analog.freeze_variation(NonIdealFactors(sigma_pv=0.4, seed=5))
        before = np.mean(np.abs(mei.predict(x) - y))
        bits = mei.encode_inputs(x)
        reference = mei.network.predict(bits)
        ice_calibrate(mei.analog, reference, bits)
        after = np.mean(np.abs(mei.predict(x) - y))
        assert after <= before + 1e-9
