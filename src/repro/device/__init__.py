"""RRAM device models and non-ideal factor generators."""

from repro.device.faults import FaultModel, inject_faults, inject_faults_analog
from repro.device.programming import ProgrammingConfig, ProgrammingResult, program_conductances
from repro.device.rram import HFOX_DEVICE, RRAMDevice
from repro.device.variation import IDEAL, NonIdealFactors, lognormal_factors

__all__ = [
    "RRAMDevice",
    "HFOX_DEVICE",
    "NonIdealFactors",
    "IDEAL",
    "lognormal_factors",
    "FaultModel",
    "inject_faults",
    "inject_faults_analog",
    "ProgrammingConfig",
    "ProgrammingResult",
    "program_conductances",
]
