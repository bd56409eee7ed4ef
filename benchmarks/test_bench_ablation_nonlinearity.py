"""Ablation bench: device I-V nonlinearity — AD/DA vs MEI sensitivity.

Real RRAM cells conduct super-linearly with voltage (sinh-like I-V).
An analog-driven crossbar (the AD/DA RCS input layer) is distorted by
it; MEI's first layer drives exact 0/1 levels, which sit on the sinh
curve's fixed points and pass through undistorted.  Hidden-layer
analog signals are distorted in both architectures.

This bench sweeps the nonlinearity alpha and measures each
architecture's accuracy degradation, quantifying one more advantage of
merging the interface.
"""


from repro.core.mei import MEI, MEIConfig
from repro.core.rcs import TraditionalRCS
from repro.core.runner import format_table
from repro.nn.trainer import TrainConfig
from repro.workloads.registry import make_benchmark
from repro.xbar.mapping import MappingConfig

ALPHAS = (0.0, 1.0, 3.0)
TRAIN = TrainConfig(epochs=300, batch_size=32, learning_rate=0.01, shuffle_seed=0,
                    lr_decay=0.5, lr_decay_every=150)


def test_bench_ablation_nonlinearity(benchmark, save_report):
    bench = make_benchmark("kmeans")
    data = bench.dataset(n_train=2500, n_test=400, seed=0)
    topo = bench.spec.topology

    def run():
        rows = []
        for alpha in ALPHAS:
            mapping = MappingConfig(input_nonlinearity=alpha)
            rcs = TraditionalRCS(topo, mapping_config=mapping, seed=0).train(
                data.x_train, data.y_train, TRAIN
            )
            mei = MEI(
                MEIConfig(topo.inputs, topo.outputs, 32),
                mapping_config=mapping,
                seed=0,
            ).train(data.x_train, data.y_train, TRAIN)
            rows.append([
                alpha,
                bench.error_normalized(rcs.predict(data.x_test), data.y_test),
                bench.error_normalized(mei.predict(data.x_test), data.y_test),
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report(
        "ablation_nonlinearity",
        "I-V nonlinearity ablation (kmeans) — error vs sinh alpha\n"
        + format_table(["alpha", "AD/DA RCS", "MEI"], rows),
    )
    by_alpha = {r[0]: r for r in rows}
    adda_degradation = by_alpha[3.0][1] - by_alpha[0.0][1]
    mei_degradation = by_alpha[3.0][2] - by_alpha[0.0][2]
    # Strong nonlinearity hurts the analog-driven architecture more.
    assert adda_degradation > 0.005
    assert mei_degradation < adda_degradation
