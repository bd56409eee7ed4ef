"""Device-level tour: write-verify programming and MNA IR drop.

The system-level experiments treat RRAM cells as "set this
conductance"; this example walks the device-level substrate beneath
that abstraction:

1. program a whole crossbar through the write-verify loop and measure
   the residual error;
2. quantify the IR-drop of the same array with the MNA circuit solver
   across technology nodes.

Run:  python examples/device_level_tour.py
"""

import numpy as np

from repro.device import HFOX_DEVICE, ProgrammingConfig, program_conductances
from repro.xbar import MNACrossbar, wire_resistance_for_node


def write_verify_demo(rng) -> np.ndarray:
    targets = rng.uniform(HFOX_DEVICE.g_min * 10, HFOX_DEVICE.g_max, (16, 16))
    result = program_conductances(
        targets, HFOX_DEVICE, ProgrammingConfig(tolerance=0.01, seed=0)
    )
    print("Write-verify programming of a 16x16 array:")
    print(f"  yield: {result.yield_fraction:.1%}, "
          f"mean pulses/cell: {result.mean_iterations:.1f}, "
          f"worst residual error: {result.max_relative_error:.2%}")
    return result.conductances


def ir_drop_demo(conductances, rng) -> None:
    from repro.xbar import compensate_ir_drop

    v = rng.uniform(0, 1, (4, conductances.shape[0]))
    print("\nIR drop of the programmed array vs technology node "
          "(and after conductance compensation):")
    for node in (90, 45, 22):
        r_wire = wire_resistance_for_node(node)
        xbar = MNACrossbar(conductances, g_s=1e-3, wire_resistance=r_wire)
        err = xbar.ir_drop_error(v)
        ideal = np.mean(np.abs(xbar.ideal_outputs(v)))
        report = compensate_ir_drop(conductances, g_s=1e-3, wire_resistance=r_wire)
        print(f"  {node:>3}nm: {err / ideal:6.2%} of signal; "
              f"compensation removes {report.improvement:.0%} "
              f"({report.saturated_fraction:.1%} cells saturated)")


def main() -> None:
    rng = np.random.default_rng(7)
    conductances = write_verify_demo(rng)
    ir_drop_demo(conductances, rng)


if __name__ == "__main__":
    main()
