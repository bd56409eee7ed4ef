"""From-scratch NumPy neural-network substrate for the RCS."""

from repro.nn.network import MLP
from repro.nn.trainer import TrainConfig, Trainer

__all__ = [
    "MLP",
    "Trainer",
    "TrainConfig",
]
