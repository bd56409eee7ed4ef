"""Multi-layer perceptron assembled from dense layers.

The paper's RCS networks are 3-layer MLPs (``I x H x O``) with sigmoid
hidden neurons.  :class:`MLP` supports arbitrary depth since the DSE
flow sweeps hidden sizes and the JPEG benchmark benefits from a wider
topology.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.config.dtype import astype as _astype
from repro.nn.layers import DenseLayer
from repro.parallel.seeding import ensure_rng

__all__ = ["MLP"]


class MLP:
    """Feed-forward network ``layer_sizes[0] -> ... -> layer_sizes[-1]``.

    Parameters
    ----------
    layer_sizes:
        Node counts per layer, e.g. ``(2, 8, 2)`` for a 2x8x2 RCS.
    hidden_activation, output_activation:
        Activation names; the paper uses sigmoid everywhere (outputs
        are normalized into the unit interval).
    rng:
        Generator (or seed) for reproducible initialization.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        hidden_activation: str = "sigmoid",
        output_activation: str = "sigmoid",
        rng: "Optional[np.random.Generator | int]" = None,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output layers")
        if any(s < 1 for s in layer_sizes):
            raise ValueError(f"layer sizes must be >= 1: {layer_sizes}")
        rng = ensure_rng(rng, "nn.MLP")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.layers: List[DenseLayer] = []
        for i in range(len(layer_sizes) - 1):
            is_output = i == len(layer_sizes) - 2
            self.layers.append(
                DenseLayer(
                    layer_sizes[i],
                    layer_sizes[i + 1],
                    activation=output_activation if is_output else hidden_activation,
                    rng=rng,
                )
            )

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Run the full network on a batch ``(n, in_dim)``."""
        out = _astype(x)
        for layer in self.layers:
            out = layer.forward(out, train=train)
        return out

    def backward(self, grad_out: np.ndarray) -> None:
        """Backprop a loss gradient into every layer's weight/bias gradients.

        The first layer's input gradient is not computed: nothing
        upstream of the network consumes it.
        """
        grad = grad_out
        for layer in self.layers[:0:-1]:
            grad = layer.backward(grad)
        self.layers[0].backward_params(grad)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode forward pass."""
        return self.forward(x, train=False)

    def copy(self) -> "MLP":
        """Deep copy (used when deploying a trained net onto crossbars)."""
        clone = MLP.__new__(MLP)
        clone.layer_sizes = self.layer_sizes
        clone.layers = [layer.copy() for layer in self.layers]
        return clone

    def parameter_count(self) -> int:
        """Total number of trainable scalars."""
        return sum(l.weights.size + l.bias.size for l in self.layers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        arch = "x".join(str(s) for s in self.layer_sizes)
        return f"MLP({arch})"
