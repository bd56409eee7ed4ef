"""Ablation bench: finite RRAM conductance levels.

The paper assumes continuously tunable devices ("the resistance of an
RRAM device can be changed to arbitrary state within a specific
range", Sec. 2.1).  Real arrays program a finite number of levels;
this ablation quantifies how many levels the MEI architecture needs
before the continuous-device assumption is harmless.
"""


from repro.core.mei import MEI, MEIConfig
from repro.core.runner import format_table
from repro.device.rram import RRAMDevice
from repro.nn.trainer import TrainConfig
from repro.workloads.registry import make_benchmark

LEVELS = (4, 16, 64, 0)  # 0 = continuous
TRAIN = TrainConfig(epochs=200, batch_size=32, learning_rate=0.01, shuffle_seed=0,
                    lr_decay=0.5, lr_decay_every=100)


def test_bench_ablation_levels(benchmark, save_report):
    bench = make_benchmark("sobel")
    data = bench.dataset(n_train=2500, n_test=400, seed=0)
    topo = bench.spec.topology

    def run():
        rows = []
        for levels in LEVELS:
            device = RRAMDevice(levels=levels)
            mei = MEI(
                MEIConfig(topo.inputs, topo.outputs, 16),
                device=device,
                seed=0,
            ).train(data.x_train, data.y_train, TRAIN)
            error = bench.error_normalized(mei.predict(data.x_test), data.y_test)
            rows.append(["continuous" if levels == 0 else levels, error])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report(
        "ablation_levels",
        "Device-level ablation — programmable conductance levels (sobel MEI)\n"
        + format_table(["levels", "error"], rows),
    )
    errors = {r[0]: r[1] for r in rows}
    # Coarse 4-level devices hurt; 64 levels approaches continuous.
    assert errors[4] > errors["continuous"]
    assert errors[64] < errors[4]
    assert abs(errors[64] - errors["continuous"]) < 0.1
