"""Ablation bench: behavioural crossbar vs MNA IR-drop solver.

The paper picks the 90nm node "to reduce the impact of IR drop" and
defers larger arrays to future work.  This bench quantifies that
choice: IR-drop error of random crossbars across array sizes and
technology nodes, against the ideal (zero-wire-resistance) model.
"""

from repro.core.runner import format_table
from repro.xbar.ir_drop import sweep_ir_drop, wire_resistance_for_node

SIZES = (8, 16, 32, 64)
NODES = (90, 45, 22)


def test_bench_ablation_irdrop(benchmark, save_report):
    def run():
        rows = []
        for node in NODES:
            r_wire = wire_resistance_for_node(node)
            for point in sweep_ir_drop(SIZES, [r_wire], n_vectors=8, seed=0):
                rows.append([node, point.size, point.wire_resistance,
                             point.relative_error])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report(
        "ablation_irdrop",
        "IR-drop ablation — MNA vs ideal crossbar, relative output error\n"
        + format_table(["node (nm)", "array size", "R_wire (ohm)", "rel err"], rows),
    )
    by_key = {(r[0], r[1]): r[3] for r in rows}
    # Error grows with array size at a fixed node ...
    assert by_key[(90, 64)] > by_key[(90, 8)]
    # ... and with smaller technology nodes at a fixed size.
    assert by_key[(22, 64)] > by_key[(90, 64)]
    # At the paper's 90nm / small-array operating point IR drop is small.
    assert by_key[(90, 8)] < 0.05
