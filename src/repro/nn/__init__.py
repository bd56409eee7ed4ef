"""From-scratch NumPy neural-network substrate for the RCS.

``_astype`` is the package-wide array-conversion helper: it replaces
the former scattered ``np.asarray(x, dtype=float)`` idiom and honours
the ``REPRO_DTYPE`` knob (float64 default, float32 opt-in).
"""

from repro.config.dtype import astype as _astype
from repro.nn.activations import Activation, Identity, Relu, Sigmoid, Tanh, get_activation
from repro.nn.datasets import UnitScaler, minibatches, resample, train_test_split
from repro.nn.layers import DenseLayer
from repro.nn.losses import Loss, WeightedMSE, mse
from repro.nn.network import MLP
from repro.nn.optimizers import SGD, Adam, Momentum, Optimizer, get_optimizer
from repro.nn.trainer import TrainConfig, Trainer, TrainResult

__all__ = [
    "_astype",
    "Activation",
    "Sigmoid",
    "Tanh",
    "Relu",
    "Identity",
    "get_activation",
    "DenseLayer",
    "MLP",
    "Loss",
    "WeightedMSE",
    "mse",
    "Optimizer",
    "SGD",
    "Momentum",
    "Adam",
    "get_optimizer",
    "Trainer",
    "TrainConfig",
    "TrainResult",
    "UnitScaler",
    "train_test_split",
    "resample",
    "minibatches",
]
