"""Tests for the CLI entry point and the bit-length extension experiment."""

import pytest

from repro.__main__ import main
from repro.core.runner import ExperimentScale
from repro.experiments.bitlength import run_bitlength

TINY = ExperimentScale(name="tiny", n_train=300, n_test=80, epochs=15, noise_trials=2)


class TestCLI:
    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "AD/DA total" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_bench_flag_requires_valid_name(self):
        with pytest.raises(SystemExit):
            main(["table1", "--bench", "nonexistent"])


class TestBitLength:
    def test_sweep_structure(self):
        result = run_bitlength(name="sobel", bit_lengths=(4, 8), scale=TINY, seed=0)
        assert [p.bits for p in result.points] == [4, 8]
        assert all(0 <= p.error for p in result.points)
        assert "bits" in result.render()

    def test_wider_interface_costs_more(self):
        result = run_bitlength(name="sobel", bit_lengths=(4, 8), scale=TINY, seed=0)
        four, eight = result.points
        # More ports -> more devices -> smaller savings.
        assert eight.area_saved < four.area_saved
        assert eight.power_saved < four.power_saved
