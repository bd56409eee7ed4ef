"""Tests for the fault-injection campaign engine and its mitigations."""

import json

import numpy as np
import pytest

from repro.core.mei import MEIConfig
from repro.core.runner import ExperimentScale
from repro.device.faults import FaultModel
from repro.experiments.fig_faults import CAMPAIGN_SCALES, campaign_scale, run_fig_faults
from repro.robustness import CampaignConfig, run_campaign
from repro.robustness.campaign import MITIGATIONS
from repro.robustness.mitigation import FaultedMEI, chip_fault_model, fault_aware_saab

MICRO_SCALE = ExperimentScale(name="micro", n_train=60, n_test=30, epochs=2,
                              noise_trials=1)
MICRO_CONFIG = CampaignConfig(
    benchmarks=("sobel",), saf_rates=(0.0, 0.08), seeds=(0,), ensemble_k=2
)


@pytest.fixture(scope="module")
def micro_result():
    """One tiny serial campaign shared by the structural assertions."""
    return run_campaign(config=MICRO_CONFIG, scale=MICRO_SCALE, seed=0,
                        workers=1, kind="serial")


class TestCampaignConfig:
    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmarks"):
            CampaignConfig(benchmarks=("sobel", "nonesuch"))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(saf_rates=())
        with pytest.raises(ValueError):
            CampaignConfig(seeds=())

    def test_bad_rates_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(saf_rates=(1.5,))
        with pytest.raises(ValueError):
            CampaignConfig(sa1_fraction=1.2)
        with pytest.raises(ValueError):
            CampaignConfig(spare_columns=-1)
        with pytest.raises(ValueError):
            CampaignConfig(ensemble_k=0)

    def test_fault_model_splits_by_sa1_fraction(self):
        config = CampaignConfig(sa1_fraction=0.25)
        model = config.fault_model(0.08, seed=3)
        assert model.stuck_on_rate == pytest.approx(0.02)
        assert model.stuck_off_rate == pytest.approx(0.06)
        assert model.seed == 3

    def test_to_dict_json_safe(self):
        json.dumps(MICRO_CONFIG.to_dict())


class TestCampaignResult:
    def test_row_grid_complete(self, micro_result):
        expected = (len(MICRO_CONFIG.benchmarks) * len(MICRO_CONFIG.saf_rates)
                    * len(MICRO_CONFIG.seeds) * len(MITIGATIONS))
        assert len(micro_result.rows) == expected
        combos = {(r.benchmark, r.saf_rate, r.defect_seed, r.mitigation)
                  for r in micro_result.rows}
        assert len(combos) == expected

    def test_zero_rate_unmitigated_equals_clean(self, micro_result):
        for row in micro_result.rows:
            if row.saf_rate == 0.0 and row.mitigation in ("none", "remap"):
                assert row.error == pytest.approx(row.clean_error)
                assert row.faulty_cells == 0

    def test_faulty_rows_record_defect_seeds(self, micro_result):
        faulty = [r for r in micro_result.rows if r.saf_rate > 0]
        assert faulty
        for row in faulty:
            assert row.total_cells > 0
            assert row.defect_seeds  # manifest replay contract
            assert all(isinstance(s, int) for s in row.defect_seeds)

    def test_mitigation_table_shape(self, micro_result):
        table = micro_result.mitigation_table()
        assert len(table) == len(MICRO_CONFIG.benchmarks) * len(MICRO_CONFIG.saf_rates)
        for entry in table:
            for mitigation in MITIGATIONS:
                assert f"error_{mitigation}" in entry
            assert "recovery_remap" in entry
            assert "recovery_retrain" in entry
            assert 0.0 <= entry["boosted_retrain"] <= MICRO_CONFIG.ensemble_k

    def test_retrain_rows_count_boosted_rounds(self, micro_result):
        for row in micro_result.rows:
            if row.mitigation == "retrain":
                assert isinstance(row.boosted_rounds, int)
                assert 0 <= row.boosted_rounds <= MICRO_CONFIG.ensemble_k
            else:
                assert row.boosted_rounds is None
        for entry in micro_result.mitigation_table():
            boosted = [r.boosted_rounds for r in micro_result.rows
                       if r.mitigation == "retrain" and r.saf_rate == entry["saf_rate"]]
            assert entry["boosted_retrain"] == sum(boosted) / len(boosted)

    def test_metrics_keys(self, micro_result):
        metrics = micro_result.metrics()
        assert "faults.sobel.r0.08.none" in metrics
        assert "faults.sobel.r0.retrain" in metrics
        assert all(isinstance(v, float) for v in metrics.values())

    def test_render_mentions_resilience(self, micro_result):
        text = micro_result.render()
        assert "err none" in text
        assert "resilience:" in text
        assert "boosted" in text
        for entry in micro_result.mitigation_table():
            assert f"{entry['boosted_retrain']:.1f}/{MICRO_CONFIG.ensemble_k}" in text

    def test_to_dict_is_json_safe_manifest_payload(self, micro_result):
        payload = json.loads(json.dumps(micro_result.to_dict()))
        assert payload["scale"] == "micro"
        assert payload["resilience"]["tasks"] == 2
        assert len(payload["rows"]) == len(micro_result.rows)
        row = next(r for r in payload["rows"] if r["saf_rate"] > 0)
        assert row["defect_seeds"]
        retrain = [r for r in payload["rows"] if r["mitigation"] == "retrain"]
        assert all(isinstance(r["boosted_rounds"], int) for r in retrain)
        assert all("boosted_retrain" in e for e in payload["mitigation_table"])

    def test_mean_error_unknown_cell_raises(self, micro_result):
        with pytest.raises(KeyError):
            micro_result.mean_error("sobel", 0.42, "none")


class TestChaosCampaign:
    def test_campaign_survives_forced_worker_crash(self, tmp_path):
        marker = tmp_path / "campaign-chaos"
        result = run_campaign(
            config=MICRO_CONFIG, scale=MICRO_SCALE, seed=0,
            workers=2, kind="process", chaos=True, chaos_marker=str(marker),
        )
        assert result.resilience is not None
        assert result.resilience.crashes >= 1
        assert not result.resilience.degraded
        expected = (len(MICRO_CONFIG.saf_rates) * len(MICRO_CONFIG.seeds)
                    * len(MITIGATIONS))
        assert len(result.rows) == expected

    def test_serial_chaos_refuses_to_kill_parent(self, tmp_path):
        # In-parent execution must skip the SIGKILL and still finish.
        marker = tmp_path / "parent-chaos"
        result = run_campaign(
            config=MICRO_CONFIG, scale=MICRO_SCALE, seed=0,
            workers=1, kind="serial", chaos=True, chaos_marker=str(marker),
        )
        assert len(result.rows) == 6
        assert not marker.exists()


class TestMitigationPrimitives:
    def test_chip_fault_model_derives_distinct_seeds(self):
        model = FaultModel(stuck_on_rate=0.05, seed=7)
        seeds = {chip_fault_model(model, k).seed for k in range(4)}
        assert len(seeds) == 4
        assert model.seed not in seeds

    def test_chip_fault_model_unseeded_passthrough(self):
        model = FaultModel(stuck_on_rate=0.05, seed=None)
        assert chip_fault_model(model, 2) is model

    def test_faulted_mei_defects_survive_redeploy(self, rng, fast_train):
        x = rng.uniform(0, 1, (150, 2))
        y = 0.2 + 0.6 * x[:, :1]
        mei = FaultedMEI(
            MEIConfig(2, 1, 8),
            FaultModel(stuck_on_rate=0.05, stuck_off_rate=0.05, seed=4),
            seed=0,
        ).train(x, y, fast_train)
        first = [d.copy() for d in mei.last_injection.defect_maps]
        mei.deploy()  # the chip's defects are permanent
        assert all(np.array_equal(a, b)
                   for a, b in zip(first, mei.last_injection.defect_maps))

    def test_fault_aware_saab_learners_carry_injections(self, rng, fast_train):
        x = rng.uniform(0, 1, (150, 2))
        y = 0.2 + 0.6 * x[:, :1]
        saab = fault_aware_saab(
            MEIConfig(2, 1, 8),
            FaultModel(stuck_on_rate=0.05, stuck_off_rate=0.05, seed=4),
            n_learners=2, seed=0, compare_bits=4,
        ).train(x, y, fast_train)
        injections = [lr.last_injection for lr in saab.learners]
        assert all(report is not None for report in injections)
        seeds = {report.model.seed for report in injections}
        assert len(seeds) == 2  # one chip, one defect map

    def test_fault_aware_saab_rejects_bad_k(self):
        with pytest.raises(ValueError):
            fault_aware_saab(MEIConfig(2, 1, 8), FaultModel(seed=0), 0)

    def test_repair_with_spares_validates_lengths(self, rng, fast_train):
        x = rng.uniform(0, 1, (120, 2))
        y = 0.2 + 0.6 * x[:, :1]
        mei = FaultedMEI(
            MEIConfig(2, 1, 8),
            FaultModel(stuck_on_rate=0.1, seed=1),
            seed=0,
        ).train(x, y, fast_train)
        snapshot = mei.analog.conductance_snapshot()
        maps = mei.last_injection.defect_maps
        with pytest.raises(ValueError):
            mei.analog.repair_with_spares(maps[:-1], snapshot, 2)
        with pytest.raises(ValueError):
            mei.analog.repair_with_spares(maps, snapshot[:-1], 2)


class TestFigFaultsDriver:
    def test_campaign_scale_names(self):
        assert set(CAMPAIGN_SCALES) == {"fast", "quick", "full"}
        assert campaign_scale("fast").name == "fast"
        with pytest.raises(ValueError, match="unknown campaign scale"):
            campaign_scale("warp")

    def test_run_fig_faults_micro(self):
        result = run_fig_faults(
            scale=MICRO_SCALE, seed=0, benchmarks=("sobel",),
            saf_rates=(0.0, 0.08), defect_seeds=(0,), ensemble_k=2,
            workers=1, kind="serial",
        )
        assert result.scale.name == "micro"
        assert result.config.benchmarks == ("sobel",)
        assert len(result.rows) == 6
