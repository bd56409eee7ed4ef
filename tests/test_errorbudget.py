"""Error-budget attribution: hardware hooks and the harness itself.

Covers the counterfactual plumbing added for the stage-attribution
harness — first-order IR drop in the crossbar, the exact (noise-capable
but quantization-free) mapping, seeded periphery — and then the harness
invariants: the additivity identity, stage completeness, metric
publication, and the compare-gate story (a deliberately doubled
``sigma_pv`` must move its own budget line).
"""

import functools

import numpy as np
import pytest

from repro.analog.converters import ADC, DAC
from repro.analog.periphery import Comparator
from repro.analysis.errorbudget import (
    STAGES,
    ErrorBudgetConfig,
    ErrorBudgetResult,
    StageKnobs,
    attribute_error,
    publish_metrics,
)
from repro.core.mei import MEI, MEIConfig
from repro.core.saab import SAAB, SAABConfig
from repro.device.variation import NonIdealFactors, pv_factor_stacks
from repro.nn.trainer import TrainConfig
from repro.obs import metrics as obs_metrics
from repro.obs import openmetrics
from repro.xbar.crossbar import Crossbar, effective_conductances
from repro.xbar.mapping import (
    DifferentialCrossbar,
    ExactDifferentialCrossbar,
    MappingConfig,
)
from tests import reference_chain as oracle


def _toy_data(n=48, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 0.95, size=(n, 2))
    y = x.mean(axis=1, keepdims=True)
    return x, y


@functools.lru_cache(maxsize=1)
def _trained_mei():
    x, y = _toy_data()
    mei = MEI(MEIConfig(in_groups=2, out_groups=1, hidden=6, bits=4), seed=0)
    mei.train(x, y, TrainConfig(epochs=15, batch_size=16, learning_rate=0.05,
                                shuffle_seed=0))
    return mei


def _mean_abs(predicted, target):
    return float(np.mean(np.abs(predicted - target)))


@functools.lru_cache(maxsize=1)
def _toy_result():
    x, y = _toy_data()
    return attribute_error(
        _trained_mei(), x, y, _mean_abs,
        ErrorBudgetConfig(trials=3, seed=0), benchmark="toy",
    )


class TestEffectiveConductances:
    def test_zero_resistance_is_identity(self):
        g = np.random.default_rng(0).uniform(1e-6, 1e-4, size=(4, 3))
        assert effective_conductances(g, 0.0) is g

    def test_resistance_strictly_reduces_conductance(self):
        g = np.full((4, 4), 5e-5)
        eff = effective_conductances(g, 2.0)
        assert np.all(eff < g)

    def test_far_corner_degrades_most(self):
        g = np.full((4, 4), 5e-5)
        eff = effective_conductances(g, 2.0)
        # path length grows with i+j, so [0,0] sees the least drop
        assert eff[0, 0] == eff.max()
        assert eff[-1, -1] == eff.min()

    def test_trial_stacks_match_per_slice(self):
        rng = np.random.default_rng(1)
        g = rng.uniform(1e-6, 1e-4, size=(3, 4, 2))
        stacked = effective_conductances(g, 2.0)
        for t in range(3):
            np.testing.assert_array_equal(
                stacked[t], effective_conductances(g[t], 2.0)
            )

    def test_negative_resistance_rejected(self):
        with pytest.raises(ValueError):
            effective_conductances(np.ones((2, 2)), -1.0)


class TestCrossbarWireResistance:
    def test_zero_keeps_legacy_coefficients(self):
        g = np.random.default_rng(2).uniform(1e-6, 1e-4, size=(3, 2))
        plain = Crossbar(g, g_s=1e-4)
        wired = Crossbar(g, g_s=1e-4, wire_resistance=0.0)
        np.testing.assert_array_equal(plain.coefficients(), wired.coefficients())

    def test_nonzero_changes_coefficients(self):
        g = np.random.default_rng(2).uniform(1e-6, 1e-4, size=(6, 3))
        plain = Crossbar(g, g_s=1e-4)
        wired = Crossbar(g, g_s=1e-4, wire_resistance=2.0)
        assert not np.array_equal(plain.coefficients(), wired.coefficients())

    def test_mapping_config_threads_resistance(self):
        w = np.random.default_rng(4).uniform(-1.0, 1.0, size=(4, 2))
        x = np.random.default_rng(5).uniform(0.0, 1.0, size=(8, 4))
        clean = DifferentialCrossbar(w, config=MappingConfig())
        wired = DifferentialCrossbar(w, config=MappingConfig(wire_resistance=2.0))
        assert not np.array_equal(clean.apply(x), wired.apply(x))

    def test_mapping_config_rejects_negative_resistance(self):
        with pytest.raises(ValueError):
            MappingConfig(wire_resistance=-0.5)


class TestExactDifferentialCrossbar:
    def test_noise_free_apply_is_exact_matmul(self):
        w = np.random.default_rng(6).uniform(-1.0, 1.0, size=(4, 3))
        x = np.random.default_rng(7).uniform(0.0, 1.0, size=(10, 4))
        xbar = ExactDifferentialCrossbar(w)
        np.testing.assert_allclose(xbar.apply(x), x @ w, rtol=0, atol=1e-15)

    def test_trials_match_serial_apply_under_noise(self):
        w = np.random.default_rng(8).uniform(-1.0, 1.0, size=(3, 2))
        x = np.random.default_rng(9).uniform(0.0, 1.0, size=(5, 3))
        noise = NonIdealFactors(sigma_pv=0.2, seed=11)
        xbar = ExactDifferentialCrossbar(w)
        x3 = np.broadcast_to(x, (3,) + x.shape).copy()
        (factors,) = pv_factor_stacks([xbar], noise.sigma_pv, noise.rngs(3))
        stacked = xbar.apply_trials(x3, factors)
        serial = np.stack([oracle.layer_output(xbar, x, noise.sigma_pv, noise.rng(t))
                           for t in range(3)])
        np.testing.assert_array_equal(stacked, serial)

    def test_pv_shapes_match_differential_pair(self):
        w = np.random.default_rng(10).uniform(-1.0, 1.0, size=(4, 3))
        exact = ExactDifferentialCrossbar(w)
        real = DifferentialCrossbar(w, config=MappingConfig())
        assert [tuple(s) for s in exact.pv_shapes()] == [
            tuple(s) for s in real.pv_shapes()
        ]

    def test_snapshots_weights(self):
        w = np.ones((2, 2))
        xbar = ExactDifferentialCrossbar(w)
        w[:] = 5.0
        np.testing.assert_array_equal(
            xbar.apply(np.eye(2)), np.ones((2, 2))
        )


class TestSeededPeriphery:
    def test_comparator_instance_rng_is_deterministic(self):
        x = np.linspace(0.0, 1.0, 32)
        a = Comparator(offset_sigma=0.1, seed=5).apply(x)
        b = Comparator(offset_sigma=0.1, seed=5).apply(x)
        np.testing.assert_array_equal(a, b)

    def test_explicit_rng_still_wins(self):
        x = np.linspace(0.0, 1.0, 32)
        comparator = Comparator(offset_sigma=0.1, seed=5)
        a = comparator.apply(x, rng=np.random.default_rng(9))
        b = Comparator(offset_sigma=0.1, seed=99).apply(
            x, rng=np.random.default_rng(9)
        )
        np.testing.assert_array_equal(a, b)

    def test_converters_accept_seed(self):
        x = np.linspace(0.0, 1.0, 16)
        a = DAC(bits=4, noise_lsb=0.5, seed=3).convert(x)
        b = DAC(bits=4, noise_lsb=0.5, seed=3).convert(x)
        np.testing.assert_array_equal(a, b)
        c = ADC(bits=4, noise_lsb=0.5, seed=3).convert(x)
        d = ADC(bits=4, noise_lsb=0.5, seed=3).convert(x)
        np.testing.assert_array_equal(c, d)

    def test_idealized_factors_zero_selected_sigmas(self):
        noise = NonIdealFactors(sigma_pv=0.2, sigma_sf=0.1, seed=7)
        no_pv = noise.idealized(pv=True)
        assert no_pv.sigma_pv == 0.0 and no_pv.sigma_sf == 0.1
        assert no_pv.seed == noise.seed
        clean = noise.idealized(pv=True, sf=True)
        assert clean.sigma_pv == 0.0 and clean.sigma_sf == 0.0


class TestDeployVariant:
    def test_all_ideal_variant_matches_digital(self):
        mei = _trained_mei()
        x, _ = _toy_data()
        knobs = StageKnobs(
            in_bits=mei.in_bits, out_bits=mei.out_bits, exact_mapping=True,
            sigma_pv=0.0, sigma_sf=0.0, comparator_offset=0.0,
            wire_resistance=0.0,
        )
        variant = mei.deploy_variant(
            mapping_config=MappingConfig(wire_resistance=0.0),
            exact_mapping=True,
            comparator=Comparator(offset_sigma=0.0, seed=0),
        )
        np.testing.assert_allclose(
            variant.predict(x), mei.predict_digital(x), rtol=0, atol=1e-12
        )
        assert knobs.substituting("pv", knobs) == knobs

    def test_variant_does_not_mutate_original(self):
        mei = _trained_mei()
        x, _ = _toy_data()
        before = mei.predict(x).copy()
        mei.deploy_variant(
            in_bits=2, out_bits=2,
            mapping_config=MappingConfig(wire_resistance=2.0),
        )
        np.testing.assert_array_equal(mei.predict(x), before)

    def test_exact_mapping_conflicts_with_programming(self):
        from repro.core.deploy import AnalogMLP
        from repro.device.programming import ProgrammingConfig

        mei = _trained_mei()
        with pytest.raises(ValueError):
            AnalogMLP(
                mei.network,
                MappingConfig(),
                mei.device,
                programming=ProgrammingConfig(),
                exact_mapping=True,
            )

    def test_saab_remapped_preserves_boosting_state(self):
        x, y = _toy_data()
        saab = SAAB(
            lambda k: MEI(MEIConfig(in_groups=2, out_groups=1, hidden=4, bits=4),
                          seed=k),
            SAABConfig(n_learners=2, seed=0),
        ).train(x, y, TrainConfig(epochs=5, batch_size=16, learning_rate=0.05,
                                  shuffle_seed=0))
        clone = saab.remapped(lambda learner: learner)
        assert clone.alphas == saab.alphas
        assert clone is not saab
        np.testing.assert_array_equal(clone.predict(x), saab.predict(x))

    def test_saab_remapped_requires_training(self):
        saab = SAAB(
            lambda k: MEI(MEIConfig(in_groups=2, out_groups=1, hidden=4, bits=4),
                          seed=k),
            SAABConfig(n_learners=2, seed=0),
        )
        with pytest.raises(RuntimeError):
            saab.remapped(lambda learner: learner)


class TestAttributeError:
    def test_additivity_identity_is_exact(self):
        result = _toy_result()
        total = sum(stage.delta for stage in result.stages)
        assert abs(result.total_gap - (total + result.residual)) < 1e-12

    def test_every_stage_attributed(self):
        result = _toy_result()
        assert tuple(s.stage for s in result.stages) == STAGES

    def test_counterfactual_deltas_consistent(self):
        result = _toy_result()
        for stage in result.stages:
            assert stage.delta == pytest.approx(
                result.err_real - stage.counterfactual_error
            )
            assert stage.leave_one_in_delta == pytest.approx(
                stage.leave_one_in_error - result.err_ideal
            )

    def test_bit_planes_cover_out_bits(self):
        result = _toy_result()
        assert len(result.bit_plane_rates) == _trained_mei().out_bits
        assert all(0.0 <= r <= 1.0 for r in result.bit_plane_rates)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ErrorBudgetConfig(trials=0)
        with pytest.raises(ValueError):
            ErrorBudgetConfig(sigma_pv=-0.1)
        with pytest.raises(ValueError):
            ErrorBudgetConfig(stages=("nonsense",))

    def test_metrics_namespace(self):
        metrics = _toy_result().metrics()
        assert "errorbudget.toy.total_gap" in metrics
        assert "errorbudget.toy.stage.pv.delta" in metrics
        assert "errorbudget.toy.bitplane.bit0" in metrics

    def test_publish_metrics_fills_registry(self):
        publish_metrics(_toy_result())
        gauges = obs_metrics.snapshot()["gauges"]
        assert "error_budget_toy_total_gap" in gauges
        for stage in STAGES:
            assert f"error_budget_toy_{stage}_delta" in gauges
        text = openmetrics.render()
        openmetrics.validate(text)
        for stage in STAGES:
            assert f"\nrepro_error_budget_toy_{stage}_delta " in text

    def test_result_roundtrips_to_dict(self):
        payload = _toy_result().as_dict()
        assert payload["name"] == "toy"
        assert len(payload["stages"]) == len(STAGES)

    def test_saab_system_supported(self):
        x, y = _toy_data()
        saab = SAAB(
            lambda k: MEI(MEIConfig(in_groups=2, out_groups=1, hidden=4, bits=4),
                          seed=k),
            SAABConfig(n_learners=2, seed=0),
        ).train(x, y, TrainConfig(epochs=5, batch_size=16, learning_rate=0.05,
                                  shuffle_seed=0))
        result = attribute_error(
            saab, x, y, _mean_abs, ErrorBudgetConfig(trials=2, seed=0),
            benchmark="saab_toy",
        )
        assert isinstance(result, ErrorBudgetResult)
        total = sum(stage.delta for stage in result.stages)
        assert abs(result.total_gap - (total + result.residual)) < 1e-12


class TestCompareGate:
    def test_doubled_sigma_pv_moves_its_own_budget_line(self):
        from repro.obs.compare import compare_metrics

        x, y = _toy_data()
        mei = _trained_mei()
        baseline = attribute_error(
            mei, x, y, _mean_abs,
            ErrorBudgetConfig(sigma_pv=0.3, trials=4, seed=0), benchmark="toy",
        )
        perturbed = attribute_error(
            mei, x, y, _mean_abs,
            ErrorBudgetConfig(sigma_pv=0.6, trials=4, seed=0), benchmark="toy",
        )
        result = compare_metrics(baseline.metrics(), perturbed.metrics())
        verdicts = {v.name: v for v in result.verdicts}
        pv_line = verdicts["errorbudget.toy.stage.pv.delta"]
        # doubling PV must visibly worsen the PV budget line...
        assert pv_line.status == "regressed"
        # ...and untouched stage knobs must not regress with it
        truncation = verdicts["errorbudget.toy.stage.output_truncation.delta"]
        assert truncation.status != "regressed"


class TestBaselineGuard:
    def test_refuses_dirty_checkout(self, monkeypatch):
        from repro.experiments import errorbudget as driver

        monkeypatch.setattr(driver.runinfo, "git_dirty", lambda: True)
        entry = {"git_sha": "abc123"}
        message = driver.baseline_guard(entry)
        assert message is not None and "dirty" in message

    def test_refuses_unknown_sha(self, monkeypatch):
        from repro.experiments import errorbudget as driver

        monkeypatch.setattr(driver.runinfo, "git_dirty", lambda: None)
        assert driver.baseline_guard({"git_sha": None}) is not None

    def test_allows_clean_checkout(self, monkeypatch):
        from repro.experiments import errorbudget as driver

        monkeypatch.setattr(driver.runinfo, "git_dirty", lambda: False)
        assert driver.baseline_guard({"git_sha": "abc123"}) is None

    def test_allow_dirty_overrides(self, monkeypatch):
        from repro.experiments import errorbudget as driver

        monkeypatch.setattr(driver.runinfo, "git_dirty", lambda: True)
        assert driver.baseline_guard({"git_sha": "abc"}, allow_dirty=True) is None

    def test_write_baseline_roundtrip(self, tmp_path):
        import json

        from repro.experiments.bench import write_baseline

        entry = {"kind": "errorbudget", "metrics": {"errorbudget.toy.total_gap": 0.1}}
        target = write_baseline(entry, tmp_path / "eb.json")
        assert json.loads(target.read_text()) == entry


class TestHistoryAndReport:
    def test_entries_of_kind_defaults_seed_era_to_bench(self):
        from repro.obs.history import entries_of_kind

        history = [
            {"metrics": {}},
            {"kind": "bench", "metrics": {}},
            {"kind": "errorbudget", "metrics": {}},
        ]
        assert len(entries_of_kind(history, "bench")) == 2
        assert len(entries_of_kind(history, "errorbudget")) == 1

    def test_report_renders_stacked_budget(self):
        from repro.obs.report import errorbudget_breakdown, render_html, stacked_budget_svg

        history = [
            {
                "kind": "errorbudget",
                "created": "2026-01-01T00:00:00",
                "metrics": {
                    "errorbudget.fft.total_gap": 0.08,
                    "errorbudget.fft.residual": 0.01,
                    "errorbudget.fft.err_real": 0.2,
                    "errorbudget.fft.err_ideal": 0.12,
                    "errorbudget.fft.stage.pv.delta": 0.06,
                    "errorbudget.fft.stage.input_codec.delta": 0.01,
                    "errorbudget.fft.stage.pv.leave_one_in": 0.05,
                    "errorbudget.fft.stage.input_codec.leave_one_in": 0.02,
                    "errorbudget.fft.bitplane.bit1": 0.25,
                    "errorbudget.fft.bitplane.bit0": 0.125,
                    "errorbudget.fft.weighted_bit_error": 0.1875,
                    "errorbudget.fft.snr_db": 21.5,
                },
            }
        ]
        breakdown = errorbudget_breakdown(history)
        assert "fft" in breakdown
        stages = breakdown["fft"]["stages"]
        assert stages[0][0] == "pv"
        svg = stacked_budget_svg(stages)
        assert svg.startswith("<svg") and "pv" in svg
        record = breakdown["fft"]
        assert record["leave_one_in"] == {"pv": 0.05, "input_codec": 0.02}
        assert record["bitplanes"] == [0.125, 0.25]  # MSB first
        assert record["weighted_bit_error"] == 0.1875
        assert record["snr_db"] == 21.5
        # The trajectory page carries the whole budget: real and ideal
        # error columns plus the per-stage detail table.
        page = render_html(history)
        assert "err real" in page and "err ideal" in page
        assert "0.2000" in page and "0.1200" in page
        assert "Per-stage detail" in page
        assert "+0.06000" in page and "+0.05000" in page  # pv delta, leave-one-in
        assert "0.125 0.250" in page
        assert "0.1875" in page and "21.5 dB" in page
