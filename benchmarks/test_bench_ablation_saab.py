"""Ablation bench: SAAB's relaxed top-B_C-bit error vs full-bit error.

Algorithm 1 Line 6 compares only the most significant ``B_C`` bits
when judging a sample "hard"; the paper warns that without this
relaxation "most of the training samples will be either sensitive or
hard ... and the performance of SAAB may significantly decrease".
This bench sweeps ``B_C`` and records each setting's measured learner
error rates and final ensemble accuracy.
"""

import numpy as np

from repro.core.mei import MEI, MEIConfig
from repro.core.runner import format_table
from repro.core.saab import SAAB, SAABConfig
from repro.nn.trainer import TrainConfig
from repro.workloads.registry import make_benchmark

TRAIN = TrainConfig(epochs=150, batch_size=128, learning_rate=0.01, shuffle_seed=0,
                    lr_decay=0.5, lr_decay_every=50)


def test_bench_ablation_saab_compare_bits(benchmark, save_report):
    bench = make_benchmark("fft")
    data = bench.dataset(n_train=2500, n_test=400, seed=0)

    def run():
        rows = []
        for compare_bits in (2, 4, 8):
            saab = SAAB(
                lambda k: MEI(MEIConfig(1, 2, 32), seed=50 + k),
                SAABConfig(n_learners=3, compare_bits=compare_bits, seed=0),
            ).train(data.x_train, data.y_train, TRAIN)
            mean_learner_error = float(np.mean([r.error for r in saab.rounds]))
            ensemble_error = bench.error_normalized(saab.predict(data.x_test), data.y_test)
            rows.append([compare_bits, mean_learner_error, ensemble_error])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report(
        "ablation_saab",
        "SAAB ablation — relaxed comparison width B_C on fft\n"
        + format_table(["B_C", "mean learner err (Line 6)", "ensemble app err"], rows),
    )
    by_bc = {r[0]: r for r in rows}
    # Strict full-bit comparison marks nearly every sample wrong (the
    # failure mode the relaxation exists to avoid).
    assert by_bc[8][1] > by_bc[2][1]
    assert by_bc[8][1] > 0.5
    # The relaxed settings keep learners better than chance.
    assert by_bc[2][1] < 0.5
