"""Crossbar tiling: realize tall matrices as stacked sub-arrays.

Practical crossbars are bounded — by the Eq. 2 column-sum headroom
(every row adds its base coefficient to each column's loading), by IR
drop, and by drive strength.  Real accelerators therefore *tile*: a
tall weight matrix is split along its input dimension into several
sub-arrays whose output currents sum (current summing is free in
analog — the bitlines of the tiles share one periphery).

:class:`TiledDifferentialCrossbar` mirrors the
:class:`repro.xbar.mapping.DifferentialCrossbar` interface, so
deployment code can swap it in when a layer's fan-in exceeds a tile
budget (MEI's bit-level interfaces make fan-ins of several hundred
routine, e.g. JPEG's 384 input ports).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.config.dtype import astype as _astype
from repro.device.rram import HFOX_DEVICE, RRAMDevice
from repro.xbar.crossbar import one_trial_apply
from repro.xbar.mapping import DifferentialCrossbar, MappingConfig

__all__ = ["TiledDifferentialCrossbar"]


class TiledDifferentialCrossbar:
    """A tall signed matrix as row-tiles of differential crossbar pairs.

    Parameters
    ----------
    weights:
        Target matrix ``(in_dim, out_dim)``.
    max_rows:
        Largest tile fan-in; the matrix splits into
        ``ceil(in_dim / max_rows)`` tiles.
    config, device:
        Forwarded to every tile's mapping.
    """

    def __init__(
        self,
        weights: np.ndarray,
        max_rows: int,
        config: Optional[MappingConfig] = None,
        device: RRAMDevice = HFOX_DEVICE,
    ):
        weights = _astype(weights)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
        if max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {max_rows}")
        self.in_dim = weights.shape[0]
        self.out_dim = weights.shape[1]
        self.max_rows = int(max_rows)
        self.tiles: List[DifferentialCrossbar] = []
        self._row_slices: List[slice] = []
        for start in range(0, self.in_dim, self.max_rows):
            stop = min(start + self.max_rows, self.in_dim)
            self._row_slices.append(slice(start, stop))
            self.tiles.append(
                DifferentialCrossbar(weights[start:stop], config=config, device=device)
            )

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    @property
    def device_count(self) -> int:
        """Total RRAM cells across tiles (equals the untiled count)."""
        return sum(tile.device_count for tile in self.tiles)

    @property
    def gain(self) -> float:  # pragma: no cover - interface parity
        """Tiles restore their own gains; the stack needs none."""
        return 1.0

    apply = one_trial_apply

    def pv_shapes(self) -> "list":
        """Conductance-array shapes, in per-trial PV draw order."""
        return [shape for tile in self.tiles for shape in tile.pv_shapes()]

    def consume_pv_factors(self, chunks) -> "list":
        """Take every tile's PV factor stacks from an ordered iterator."""
        return [tile.consume_pv_factors(chunks) for tile in self.tiles]

    def apply_trials(
        self,
        x: np.ndarray,
        pv_factors: "Optional[list]" = None,
    ) -> np.ndarray:
        """``x @ W`` over a ``(trials, batch, in)`` stack, summing the tiles' currents.

        ``pv_factors`` is the optional per-tile list from
        :meth:`consume_pv_factors`.
        """
        x = _astype(x)
        if x.ndim != 3:
            raise ValueError(f"trial stack must be 3-D, got shape {x.shape}")
        if x.shape[2] != self.in_dim:
            raise ValueError(f"input has {x.shape[2]} ports, matrix has {self.in_dim} rows")
        if pv_factors is None:
            pv_factors = [None] * len(self.tiles)
        total = None
        for rows, tile, factors in zip(self._row_slices, self.tiles, pv_factors):
            partial = tile.apply_trials(x[:, :, rows], factors)
            total = partial if total is None else total + partial
        return total
