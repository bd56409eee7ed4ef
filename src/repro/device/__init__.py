"""RRAM device models and non-ideal factor generators."""

from repro.device.programming import ProgrammingConfig, program_conductances
from repro.device.rram import HFOX_DEVICE
from repro.device.variation import IDEAL, NonIdealFactors

__all__ = [
    "HFOX_DEVICE",
    "NonIdealFactors",
    "IDEAL",
    "ProgrammingConfig",
    "program_conductances",
]
