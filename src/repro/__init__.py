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
    DSEConfig,
    MEIConfig,
    SAABConfig,
    TraditionalRCS,
    explore,
)
from repro.cost import LITERATURE_AREA, LITERATURE_POWER, Topology, savings
from repro.device import IDEAL, NonIdealFactors
from repro.nn import TrainConfig
from repro.workloads import make_benchmark

__version__ = "1.0.0"

__all__ = [
    "MEI",
    "MEIConfig",
    "SAAB",
    "SAABConfig",
    "TraditionalRCS",
    "DSEConfig",
    "explore",
    "Topology",
    "LITERATURE_AREA",
    "LITERATURE_POWER",
    "savings",
    "NonIdealFactors",
    "IDEAL",
    "TrainConfig",
    "make_benchmark",
    "__version__",
]
