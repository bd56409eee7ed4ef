"""Robustness study: MEI vs AD/DA under process variation and signal noise.

A compact version of the paper's Fig. 5 on one benchmark: sweeps the
lognormal sigma of each non-ideal factor and prints the Monte-Carlo
mean error of the traditional RCS, a single MEI, and a SAAB ensemble.

Run:  python examples/robustness_study.py
"""

from repro import (
    MEI,
    SAAB,
    MEIConfig,
    NonIdealFactors,
    SAABConfig,
    TrainConfig,
    TraditionalRCS,
    make_benchmark,
)
from repro.metrics.robustness import evaluate_under_noise

TRAIN = TrainConfig(epochs=150, batch_size=128, learning_rate=0.01,
                    shuffle_seed=0, lr_decay=0.5, lr_decay_every=50)
SIGMAS = (0.0, 0.05, 0.1, 0.2)
TRIALS = 8


def main() -> None:
    bench = make_benchmark("inversek2j")
    data = bench.dataset(n_train=5000, n_test=600, seed=0)
    topo = bench.spec.topology

    print("training the three systems ...")
    systems = {
        "AD/DA": TraditionalRCS(topo, seed=0).train(data.x_train, data.y_train, TRAIN),
        "MEI": MEI(MEIConfig(topo.inputs, topo.outputs, 32), seed=0).train(
            data.x_train, data.y_train, TRAIN
        ),
        "MEI+SAAB": SAAB(
            lambda k: MEI(MEIConfig(topo.inputs, topo.outputs, 32), seed=10 + k),
            SAABConfig(n_learners=3, compare_bits=5,
                       noise=NonIdealFactors(sigma_pv=0.05, sigma_sf=0.05, seed=1),
                       seed=0),
        ).train(data.x_train, data.y_train, TRAIN),
    }

    for factor, make_noise in (
        ("process variation", lambda s: NonIdealFactors(sigma_pv=s, seed=42)),
        ("signal fluctuation", lambda s: NonIdealFactors(sigma_sf=s, seed=42)),
    ):
        print(f"\n{factor} (lognormal sigma sweep, {TRIALS} trials each):")
        header = "  system    " + "".join(f"  s={s:<6}" for s in SIGMAS)
        print(header)
        for name, system in systems.items():
            errors = []
            for sigma in SIGMAS:
                evaluation = evaluate_under_noise(
                    system,
                    data.x_test, data.y_test,
                    bench.error_normalized,
                    make_noise(sigma),
                    trials=TRIALS,
                )
                errors.append(evaluation.mean)
            print(f"  {name:<9}" + "".join(f"  {e:<7.4f}" for e in errors))


if __name__ == "__main__":
    main()
