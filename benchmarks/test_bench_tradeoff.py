"""Bench: the accuracy/area/power trade-off frontier (Sec. 4's goal).

Enumerates a small grid of MEI design points on the kmeans workload
and reports the Pareto-optimal frontier — the designer-facing view of
"trade-offs among accuracy, area, and power consumption".
"""

from repro.core.runner import train_config
from repro.core.tradeoff import enumerate_tradeoffs
from repro.workloads.registry import make_benchmark


def test_bench_tradeoff_frontier(benchmark, save_report, scale):
    bench = make_benchmark("kmeans")
    data = bench.dataset(n_train=scale.n_train, n_test=scale.n_test, seed=0)

    def run():
        return enumerate_tradeoffs(
            bench.spec.topology,
            data.x_train, data.y_train, data.x_test, data.y_test,
            bench.error_normalized,
            hidden_sizes=(16, 40),
            ensemble_sizes=(1, 2),
            bit_lengths=(6, 8),
            train_config=train_config(scale, 0),
            seed=0,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report("tradeoff_kmeans", result.render())

    assert len(result.points) == 8
    front = result.pareto
    assert 1 <= len(front) <= len(result.points)
    # The frontier must contain the most accurate point and trade
    # monotonically: sorted by error, savings never increase backwards.
    best_error = min(p.error for p in result.points)
    assert front[0].error == best_error
    areas = [p.area_saved for p in front]
    assert areas == sorted(areas)
