"""The paper's contributions: MEI, SAAB and the design space exploration."""

from repro.core.dse import DSEConfig, explore
from repro.core.mei import MEI, MEIConfig
from repro.core.rcs import TraditionalRCS
from repro.core.saab import SAAB, SAABConfig

__all__ = [
    "TraditionalRCS",
    "MEI",
    "MEIConfig",
    "SAAB",
    "SAABConfig",
    "DSEConfig",
    "explore",
]
