"""Bench: the Sec. 4 design space exploration flow, end to end.

Runs Algorithm 2 on a benchmark with a realistic error requirement,
reporting the chosen architecture, the Eq. 9 bound, and the resulting
area/power savings.  Also exercises the "Mission Impossible" exit.
"""

from repro.core.dse import DSEConfig, explore
from repro.core.runner import train_config
from repro.device.variation import NonIdealFactors
from repro.workloads.registry import make_benchmark


def test_bench_dse_sobel(benchmark, save_report, scale):
    bench = make_benchmark("sobel")
    data = bench.dataset(n_train=scale.n_train, n_test=scale.n_test, seed=0)
    config = DSEConfig(
        error_requirement=0.12,
        robustness_requirement=0.5,
        noise=NonIdealFactors(sigma_pv=0.05, sigma_sf=0.05, seed=9),
        initial_hidden=8,
        max_hidden=64,
        noise_trials=scale.noise_trials,
        prune=True,
        seed=0,
    )

    def run():
        return explore(
            bench.spec.topology,
            data.x_train, data.y_train, data.x_test, data.y_test,
            bench.error_normalized, config, train_config(scale, 0),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "DSE (Algorithm 2) on sobel",
        f"status={result.status} hidden={result.hidden} K={result.k} "
        f"(K_max={result.k_max}) used_saab={result.used_saab}",
        f"final topology: {result.topology}",
        f"error={result.error:.4f} robustness={result.robustness:.3f}",
        f"area saved={result.area_saved:.4f} power saved={result.power_saved:.4f}",
        "log:",
        *("  " + line for line in result.log),
    ]
    save_report("dse_sobel", "\n".join(lines))

    assert result.status == "ok"
    assert result.error <= config.error_requirement
    assert result.k <= result.k_max


def test_bench_dse_mission_impossible(benchmark, save_report, scale):
    bench = make_benchmark("sobel")
    data = bench.dataset(n_train=600, n_test=200, seed=0)
    config = DSEConfig(
        error_requirement=1e-9,  # unmeetable
        initial_hidden=4,
        max_hidden=8,
        prune=False,
        seed=0,
    )
    from repro.nn.trainer import TrainConfig

    fast = TrainConfig(epochs=20, batch_size=128, learning_rate=0.02, shuffle_seed=0)

    def run():
        return explore(
            bench.spec.topology,
            data.x_train, data.y_train, data.x_test, data.y_test,
            bench.error_normalized, config, fast,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report("dse_mission_impossible",
                f"status={result.status} K={result.k} K_max={result.k_max}")
    assert result.status == "mission_impossible"
