"""Extension bench: per-inference latency, AD/DA RCS vs MEI.

The paper quantifies the interface's area/power cost; the same
converters also gate latency.  This bench tabulates the timing model
(`repro.cost.timing`) over the six Table 1 topologies under two
converter provisioning policies (private converter per port vs one
shared converter per side).
"""

from repro.core.runner import format_table
from repro.cost.timing import TimingParams, latency_mei, latency_traditional, speedup
from repro.workloads.registry import BENCHMARK_NAMES, PAPER_TABLE1, make_benchmark

PRIVATE = TimingParams()
SHARED = TimingParams(dacs_per_port=1 / 8, adcs_per_port=1 / 8)


def test_bench_ext_timing(benchmark, save_report):
    def run():
        rows = []
        for name in BENCHMARK_NAMES:
            topo = make_benchmark(name).spec.topology
            mei = PAPER_TABLE1[name].pruned_mei
            rows.append([
                name,
                latency_traditional(topo, PRIVATE),
                latency_traditional(topo, SHARED),
                latency_mei(mei, PRIVATE),
                speedup(topo, mei, PRIVATE),
                speedup(topo, mei, SHARED),
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=3, iterations=1)
    save_report(
        "ext_timing",
        "Latency extension — per-inference time (ns) and MEI speedup\n"
        + format_table(
            ["bench", "AD/DA private", "AD/DA shared", "MEI", "speedup", "speedup shared"],
            rows,
        ),
    )
    for row in rows:
        assert row[4] > 1.0  # MEI faster even with private converters
        assert row[5] > row[4]  # sharing makes the AD/DA gap worse
