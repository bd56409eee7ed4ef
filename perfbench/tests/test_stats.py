"""Percentiles, the tail rule, and the result line against BENCHMARK.json."""

import json

import pytest

import harness
import layers


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 99) == 99
    assert harness.percentile(values, 100) == 100
    assert harness.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9),   # 10 samples above p99.9
    (9_999, 99.5),
    (1_000, 99.0),    # exactly 10 above p99
    (999, 98.0),
    (500, 98.0),
    (200, 95.0),
    (100, 90.0),
    (40, 75.0),
    (20, 50.0),
    (19, None),
    (1, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert harness.tail_percentile(n) == expected
    if expected is not None:
        assert n - harness._rank(expected, n) >= 10


def test_tail_lowers_the_percentile_and_falls_back_to_the_maximum():
    sample = [float(v) for v in range(1, 201)]
    assert harness.tail(sample) == {"value": 190.0, "percentile": 95.0, "samples": 200.0}
    assert harness.tail([float(v) for v in range(1, 1001)])["percentile"] == 99.0
    assert harness.tail([3.0, 1.0, 2.0]) == {"value": 3.0, "percentile": 100.0, "samples": 3.0}


def test_median():
    assert harness.median([3.0, 1.0, 2.0]) == 2.0
    assert harness.median([4.0, 1.0, 2.0, 3.0]) == 2.5


SPEC = harness.load_spec()
E2E = harness.metric_specs(SPEC, trace=False)
PER_LAYER = harness.metric_specs(SPEC, trace=True)


def test_declared_metric_names_are_valid_and_unique():
    names = list(E2E) + list(PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert harness.METRIC_NAME.match(name), name
    assert E2E["setup_s"]["unit"] == "s" and E2E["setup_s"]["better"] == "lower"
    assert E2E["setup_s"]["bound"] == max(e["bound"] for e in E2E.values())


def test_per_layer_metrics_are_exactly_the_declared_ones():
    extra = dict.fromkeys(["mapping_cache_hit_ratio", "serve_shed", "serve_retries",
                           "serve_failed", "tracing_overhead_frac"], 0.0)
    assert set(layers.per_layer([], extra)) == set(PER_LAYER)


def test_result_line_reports_every_declared_metric_with_its_unit():
    checks = harness.Checks()
    checks.check(True, "fine")
    values = {name: 1.5 for name in E2E}
    result = json.loads(harness.result_line(values, checks, trace=False, spec=SPEC))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: v["unit"] for k, v in E2E.items()}


def test_result_line_rejects_missing_or_unknown_metrics():
    values = {name: 1.0 for name in E2E}
    with pytest.raises(ValueError):
        harness.result_line({**values, "undeclared": 1.0}, harness.Checks(), False, SPEC)
    del values["setup_s"]
    with pytest.raises(ValueError):
        harness.result_line(values, harness.Checks(), False, SPEC)


def test_failed_checks_make_the_run_incorrect():
    checks = harness.Checks()
    checks.check(False, "broken")
    checks.count(10, 2, "requests")
    result = json.loads(harness.result_line({n: 1.0 for n in E2E}, checks, False, SPEC))
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 11, 3)
    assert checks.failures == ["broken", "requests: 2 of 10 failed"]
