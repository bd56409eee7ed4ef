"""repro — reproduction of "Merging the Interface" (Li et al., DAC 2015).

A production-style Python library for RRAM crossbar-based mixed-signal
computing systems (RCS): the MEI interface-merging architecture, the
SAAB boosting ensemble, the power/area/accuracy design space
exploration, and every substrate they stand on (NumPy MLPs, crossbar
simulators with IR-drop MNA solving, behavioural AD/DA and analog
periphery, cost models, and the six NPU benchmarks rebuilt from
scratch).

Quick start::

    from repro import MEI, MEIConfig, make_benchmark

    bench = make_benchmark("sobel")
    data = bench.dataset(n_train=5000, n_test=500)
    mei = MEI(MEIConfig(in_groups=9, out_groups=1, hidden=16))
    mei.train(data.x_train, data.y_train)
    error = bench.error_normalized(mei.predict(data.x_test), data.y_test)
"""

from repro.core import (
    MEI,
    SAAB,
    AnalogMLP,
    DSEConfig,
    DSEResult,
    MEIConfig,
    SAABConfig,
    TraditionalRCS,
    explore,
)
from repro.cost import (
    LITERATURE_AREA,
    LITERATURE_POWER,
    CostParams,
    MEITopology,
    Topology,
    breakdown,
    fit_cost_params,
    savings,
)
from repro.device import HFOX_DEVICE, IDEAL, NonIdealFactors, RRAMDevice
from repro.nn import MLP, TrainConfig, Trainer
from repro.parallel import (
    derive_seed,
    derive_seeds,
    ensure_rng,
    fresh_rng,
    get_executor,
    resolve_workers,
)
from repro.quant import FixedPointCodec
from repro.serialization import (
    load_mei,
    load_mlp,
    load_rcs,
    load_saab,
    save_mei,
    save_mlp,
    save_rcs,
    save_saab,
)
from repro.workloads import BENCHMARK_NAMES, PAPER_TABLE1, all_benchmarks, make_benchmark
from repro.xbar import Crossbar, DifferentialCrossbar, MNACrossbar

__version__ = "1.0.0"

__all__ = [
    "MEI",
    "MEIConfig",
    "SAAB",
    "SAABConfig",
    "TraditionalRCS",
    "AnalogMLP",
    "DSEConfig",
    "DSEResult",
    "explore",
    "Topology",
    "MEITopology",
    "CostParams",
    "LITERATURE_AREA",
    "LITERATURE_POWER",
    "breakdown",
    "savings",
    "fit_cost_params",
    "RRAMDevice",
    "HFOX_DEVICE",
    "NonIdealFactors",
    "IDEAL",
    "MLP",
    "Trainer",
    "TrainConfig",
    "get_executor",
    "resolve_workers",
    "derive_seed",
    "derive_seeds",
    "ensure_rng",
    "fresh_rng",
    "FixedPointCodec",
    "Crossbar",
    "DifferentialCrossbar",
    "MNACrossbar",
    "make_benchmark",
    "all_benchmarks",
    "BENCHMARK_NAMES",
    "PAPER_TABLE1",
    "save_mlp",
    "load_mlp",
    "save_mei",
    "load_mei",
    "save_rcs",
    "load_rcs",
    "save_saab",
    "load_saab",
    "__version__",
]
