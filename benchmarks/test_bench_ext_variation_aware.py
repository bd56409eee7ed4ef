"""Extension bench: variation-aware training vs post-hoc mitigation.

The paper hardens systems against process variation structurally
(SAAB, wider hidden layers).  A complementary lever the framework
supports is *variation-aware training* — injecting multiplicative
weight noise during training so the network lands in a flat minimum.
This bench compares the PV degradation of a plainly-trained MEI
against a variation-aware one, and also reports ICE inline calibration
on a statically-varied chip instance.
"""

import numpy as np

from repro.core.calibration import ice_calibrate
from repro.core.mei import MEI, MEIConfig
from repro.core.runner import format_table
from repro.device.variation import NonIdealFactors
from repro.nn.trainer import TrainConfig
from repro.workloads.registry import make_benchmark

SIGMA_PV = 0.2
TRIALS = 5


def test_bench_ext_variation_aware(benchmark, save_report):
    bench = make_benchmark("kmeans")
    data = bench.dataset(n_train=2500, n_test=400, seed=0)
    topo = bench.spec.topology
    noise = NonIdealFactors(sigma_pv=SIGMA_PV, seed=11)

    def evaluate(mei):
        clean = bench.error_normalized(mei.predict(data.x_test), data.y_test)
        noisy = float(np.mean([
            bench.error_normalized(mei.predict(data.x_test, noise, t), data.y_test)
            for t in range(TRIALS)
        ]))
        return clean, noisy

    def run():
        rows = []
        for label, weight_noise in (("plain", 0.0), ("variation-aware", 0.1)):
            cfg = TrainConfig(epochs=300, batch_size=32, learning_rate=0.01,
                              shuffle_seed=0, lr_decay=0.5, lr_decay_every=150,
                              weight_noise_sigma=weight_noise)
            mei = MEI(MEIConfig(topo.inputs, topo.outputs, 32), seed=0).train(
                data.x_train, data.y_train, cfg
            )
            clean, noisy = evaluate(mei)
            rows.append([label, clean, noisy, noisy - clean])
            if label == "plain":
                # ICE calibration of one statically-varied chip instance.
                mei.analog.freeze_variation(NonIdealFactors(sigma_pv=SIGMA_PV, seed=3))
                frozen = bench.error_normalized(mei.predict(data.x_test), data.y_test)
                bits = mei.encode_inputs(data.x_train)
                ice_calibrate(mei.analog, mei.network.predict(bits), bits)
                calibrated = bench.error_normalized(mei.predict(data.x_test), data.y_test)
                rows.append(["frozen chip (uncal.)", frozen, float("nan"), float("nan")])
                rows.append(["frozen chip (ICE cal.)", calibrated, float("nan"),
                             float("nan")])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report(
        "ext_variation_aware",
        f"Variation-aware training & ICE calibration (kmeans, PV sigma={SIGMA_PV})\n"
        + format_table(["system", "clean err", "noisy err", "degradation"], rows),
    )
    by_label = {r[0]: r for r in rows}
    # Variation-aware training degrades no more than plain under PV.
    assert by_label["variation-aware"][3] <= by_label["plain"][3] + 0.01
    # ICE calibration recovers accuracy on the frozen chip.
    assert by_label["frozen chip (ICE cal.)"][1] <= by_label["frozen chip (uncal.)"][1] + 1e-9
