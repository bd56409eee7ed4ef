"""Training loop with minibatching, early stopping and history.

The trainer solves the optimization problems of Eq. (4)/(5) by
minibatch gradient descent.  It is deliberately plain: the interesting
training behaviour (MSB weighting, SAAB resampling) lives in the loss
and dataset layers, keeping this loop reusable across every experiment.
A fit packs the model's parameters into one flat vector up front
(:func:`repro.nn.layers.flatten`); each minibatch step then backprops
into the flat gradient vector and updates the whole vector in place.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.config.dtype import astype as _astype
from repro.nn.datasets import minibatches
from repro.nn.layers import flatten
from repro.nn.losses import Loss, WeightedMSE
from repro.nn.network import MLP
from repro.nn.optimizers import Optimizer
from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger
from repro.sanitize import guards as sanitize_guards

__all__ = ["TrainConfig", "TrainResult", "Trainer"]

_log = get_logger("nn.trainer")


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for one training run."""

    epochs: int = 200
    batch_size: int = 64
    learning_rate: float = 0.01
    optimizer: str = "adam"
    patience: int = 0
    """Early-stopping patience in epochs on validation loss; 0 disables."""
    min_delta: float = 1e-6
    """Minimum validation improvement that resets patience."""
    shuffle_seed: Optional[int] = None
    lr_decay: float = 1.0
    """Multiply the learning rate by this factor every ``lr_decay_every``
    epochs (1.0 disables the schedule)."""
    lr_decay_every: int = 0
    weight_noise_sigma: float = 0.0
    """Variation-aware training: perturb the weights with multiplicative
    lognormal noise of this sigma on every minibatch (gradients are
    computed at the perturbed point and applied to the clean weights),
    hardening the network against the process variation its crossbar
    deployment will suffer.  0 disables."""
    l2: float = 0.0
    """L2 weight-decay coefficient added to the weight gradients (biases
    are not decayed).  Small weights also map onto a narrower
    conductance range, easing crossbar programming.  0 disables."""
    track_train_loss: bool = False
    """Opt in to recording the full-dataset training loss each logged
    epoch (``TrainResult.train_losses``).  Each record is an extra full
    forward pass; the trained weights are bit-identical either way."""
    log_every: int = 1
    """Record the training loss every this many epochs (the final epoch
    is always recorded).  Only consulted when ``track_train_loss``."""

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if self.lr_decay <= 0 or self.lr_decay > 1:
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.lr_decay_every < 0:
            raise ValueError(f"lr_decay_every must be >= 0, got {self.lr_decay_every}")
        if self.weight_noise_sigma < 0:
            raise ValueError(
                f"weight_noise_sigma must be >= 0, got {self.weight_noise_sigma}"
            )
        if self.l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")
        if self.log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every}")


@dataclass
class TrainResult:
    """History of a training run."""

    train_losses: List[float] = field(default_factory=list)
    val_losses: List[float] = field(default_factory=list)
    epochs_run: int = 0
    stopped_early: bool = False
    epoch_seconds: List[float] = field(default_factory=list)
    """Wall time of each epoch run (always populated; one entry per
    epoch, including a partial early-stopped final epoch)."""

    @property
    def final_train_loss(self) -> float:
        return self.train_losses[-1] if self.train_losses else float("nan")

    @property
    def final_val_loss(self) -> float:
        return self.val_losses[-1] if self.val_losses else float("nan")

    @property
    def total_seconds(self) -> float:
        """Total training wall time across all epochs run."""
        return float(sum(self.epoch_seconds))


class Trainer:
    """Minibatch gradient-descent trainer for :class:`MLP`.

    Parameters
    ----------
    loss:
        Loss object; defaults to uniform :class:`WeightedMSE` (Eq. 4).
    config:
        Hyper-parameters; defaults are sized for the paper's small nets.
    """

    def __init__(self, loss: Optional[Loss] = None, config: Optional[TrainConfig] = None):
        self.loss = loss if loss is not None else WeightedMSE()
        self.config = config if config is not None else TrainConfig()

    def _make_optimizer(self) -> Optimizer:
        from repro.nn.optimizers import get_optimizer

        return get_optimizer(self.config.optimizer, learning_rate=self.config.learning_rate)

    def fit(
        self,
        model: MLP,
        x: np.ndarray,
        y: np.ndarray,
        x_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
        sample_weights: Optional[np.ndarray] = None,
    ) -> TrainResult:
        """Train ``model`` in place and return the loss history."""
        x = _astype(x)
        y = _astype(y)
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x and y lengths differ: {x.shape[0]} vs {y.shape[0]}")
        if x.shape[1] != model.in_dim:
            raise ValueError(f"x has {x.shape[1]} features, model expects {model.in_dim}")
        if y.shape[1] != model.out_dim:
            raise ValueError(f"y has {y.shape[1]} ports, model expects {model.out_dim}")
        if sample_weights is not None:
            sample_weights = _astype(sample_weights)
            if sample_weights.shape[0] != x.shape[0]:
                raise ValueError("sample_weights length mismatch")

        optimizer = self._make_optimizer()
        params, grads = flatten(model.layers)
        clean_params = np.empty_like(params) if self.config.weight_noise_sigma > 0 else None
        rng = np.random.default_rng(self.config.shuffle_seed)
        result = TrainResult()
        best_val = float("inf")
        bad_epochs = 0
        best_layers = None
        debug = _log.isEnabledFor(logging.DEBUG)

        for epoch in range(self.config.epochs):
            epoch_start = time.perf_counter()
            if (
                self.config.lr_decay_every
                and epoch
                and epoch % self.config.lr_decay_every == 0
            ):
                optimizer.learning_rate *= self.config.lr_decay
            for xb, yb, wb in minibatches(x, y, self.config.batch_size, rng, sample_weights):
                if clean_params is not None:
                    np.copyto(clean_params, params)
                    for layer in model.layers:
                        layer.weights *= rng.lognormal(
                            0.0, self.config.weight_noise_sigma, layer.weights.shape
                        )
                pred = model.forward(xb, train=True)
                grad = self.loss.gradient(pred, yb, wb)
                sanitize_guards.check_finite("trainer", "loss_gradient", grad)
                model.backward(grad)
                if clean_params is not None:
                    # Apply the perturbed-point gradients to the clean
                    # weights (standard noise-injection training).
                    np.copyto(params, clean_params)
                if self.config.l2 > 0:
                    for layer in model.layers:
                        layer.grad_weights += self.config.l2 * layer.weights
                optimizer.update(params, grads)

            if self.config.track_train_loss and (
                (epoch + 1) % self.config.log_every == 0
                or epoch + 1 == self.config.epochs
            ):
                result.train_losses.append(
                    self.loss.value(model.predict(x), y, sample_weights)
                )
            result.epochs_run = epoch + 1

            stop = False
            if x_val is not None and y_val is not None:
                val = self.loss.value(model.predict(x_val), _astype(y_val))
                result.val_losses.append(val)
                if self.config.patience:
                    if val < best_val - self.config.min_delta:
                        best_val = val
                        bad_epochs = 0
                        best_layers = [layer.copy() for layer in model.layers]
                    else:
                        bad_epochs += 1
                        if bad_epochs >= self.config.patience:
                            result.stopped_early = True
                            stop = True
            result.epoch_seconds.append(time.perf_counter() - epoch_start)
            if debug and (
                (epoch + 1) % self.config.log_every == 0
                or epoch + 1 == self.config.epochs
            ):
                _log.debug(
                    "epoch done",
                    extra={
                        "fields": {
                            "epoch": epoch + 1,
                            "train_loss": result.train_losses[-1]
                            if result.train_losses
                            else None,
                            "val_loss": result.val_losses[-1]
                            if result.val_losses
                            else None,
                            "seconds": round(result.epoch_seconds[-1], 6),
                        }
                    },
                )
            if stop:
                break

        obs_metrics.counter("train_runs").inc()
        obs_metrics.counter("train_epochs").inc(result.epochs_run)
        obs_metrics.histogram("train_epoch_seconds").observe_many(result.epoch_seconds)
        if result.stopped_early and best_layers is not None:
            model.layers = best_layers
        return result
