"""Modified nodal analysis (MNA) of a crossbar with wire resistance.

The paper performs SPICE-level emulation of the crossbar and picks a
90nm interconnect "to reduce the impact of IR drop" [17].  This module
is the SPICE-equivalent substrate: it solves the full resistive network
of an ``n x m`` crossbar, including wordline/bitline wire segment
resistance, with a sparse linear solve.

Circuit topology (one cell at word row ``i``, bit column ``j``):

* wordline node ``W(i, j)``; ``W(i, 0)`` is driven by the input source
  ``V_i`` (ideal driver);
* wire conductance ``g_w`` between horizontally adjacent wordline
  nodes and vertically adjacent bitline nodes;
* the RRAM cell ``g[i, j]`` bridges ``W(i, j)`` to ``B(i, j)``;
* each bitline ends in a terminal node ``T(j)`` loaded by ``g_s`` to
  ground; the output voltage is read at ``T(j)``.

As ``g_w -> inf`` the solution converges to the ideal behavioural
model of :mod:`repro.xbar.crossbar` (column-sum Eq. 2); the unit tests
assert that limit, which also validates our reading of the paper's
ambiguous Eq. 2 subscripts.

Two factorizations are available (``solver=`` argument):

* ``"lu"`` — sparse LU via SuperLU (:func:`scipy.sparse.linalg.factorized`),
  the historical default.
* ``"banded"`` — the crossbar netlist is a 2-D grid, so numbering the
  unknowns slice by slice along the longer axis (interleaving wordline
  and bitline nodes within a slice) bounds the matrix bandwidth at
  roughly ``2 * min(rows, cols)``.  The system matrix is symmetric
  positive definite, so the banded form factorizes with LAPACK's
  Cholesky ``pbtrf`` — measured 2.5-3.7x faster than SuperLU for
  crossbars up to ~64 ports on the short side, at ~1e-12 relative
  agreement with the LU solution.
* ``"auto"`` (default) — picks ``"banded"`` when
  ``min(rows, cols) <= 32`` (where the banded factorization wins and
  back-substitution overhead stays negligible) and ``"lu"`` otherwise.
  Falls back to LU if the Cholesky factorization fails.

The MNA solve always runs in float64 regardless of the ``REPRO_DTYPE``
knob: the network matrix conditioning worsens with crossbar size and
the SPICE-equivalence tests rely on double-precision headroom.

SciPy (~0.6 s and ~40 MiB per process) is imported inside the methods
that call it, so importing the package does not load it
(``tests/test_import_footprint.py``).
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger

__all__ = ["MNACrossbar", "MNA_SOLVERS", "BANDED_AUTO_MAX_SHORT_SIDE"]

_log = get_logger("xbar.mna")

MNA_SOLVERS = ("auto", "lu", "banded")
"""Accepted values for :class:`MNACrossbar`'s ``solver`` argument."""

BANDED_AUTO_MAX_SHORT_SIDE = 32
"""``solver="auto"`` uses the banded path when ``min(rows, cols)`` is at
most this.  The banded bandwidth is ~``2 * min(rows, cols)``; past ~64
SuperLU's fill-reducing ordering wins on both factorize and solve."""


class MNACrossbar:
    """IR-drop-aware crossbar solved by sparse modified nodal analysis.

    Parameters
    ----------
    conductances:
        Cell conductance matrix ``(rows, cols)`` in siemens.
    g_s:
        Load conductance at each bitline terminal.
    wire_resistance:
        Resistance of one wire segment between adjacent cross-points
        (ohms).  ~1-5 ohm/segment is typical for 90nm metal.
    solver:
        ``"auto"`` (default), ``"lu"`` or ``"banded"``; see the module
        docstring.  After construction :attr:`solver_used` records the
        factorization that actually ran.
    """

    def __init__(
        self,
        conductances: np.ndarray,
        g_s: float,
        wire_resistance: float = 2.0,
        solver: str = "auto",
    ):
        # the MNA physics solve is fixed float64 by design (conductance
        # stamps and banded LU; see docs/performance.md) — REPRO_DTYPE
        # only steers the digital data path
        conductances = np.asarray(conductances, dtype=float)  # repro-lint: disable=RPR007
        if conductances.ndim != 2:
            raise ValueError(f"conductances must be 2-D, got shape {conductances.shape}")
        if np.any(conductances < 0):
            raise ValueError("conductances must be non-negative")
        if g_s <= 0:
            raise ValueError("load conductance must be positive")
        if wire_resistance <= 0:
            raise ValueError("wire resistance must be positive")
        if solver not in MNA_SOLVERS:
            raise ValueError(f"solver must be one of {MNA_SOLVERS}, got {solver!r}")
        self.g = conductances
        self.g_s = float(g_s)
        self.g_w = 1.0 / float(wire_resistance)
        self.solver = solver
        self.solver_used: str = ""
        self.bandwidth: Optional[int] = None
        self._factorized: Optional[Callable[[np.ndarray], np.ndarray]] = None
        self._band_cholesky: Optional[np.ndarray] = None
        self._band_source_map: Optional[np.ndarray] = None
        self._band_t_positions: Optional[np.ndarray] = None
        self._build()

    # -- node numbering -------------------------------------------------
    # unknowns: W(i,j) for j >= 1, then all B(i,j), then T(j).
    # W(i,0) is the driven (known) node of row i.

    def _t_index(self, j: int) -> int:
        return self._n_w + self.rows * self.cols + j

    @property
    def rows(self) -> int:
        return self.g.shape[0]

    @property
    def cols(self) -> int:
        return self.g.shape[1]

    def _build(self) -> None:
        n, m = self.rows, self.cols
        self._n_w = n * (m - 1)
        n_nodes = self._n_w + n * m + m
        n_w, g_w = self._n_w, self.g_w
        i_all = np.arange(n)
        j_all = np.arange(m)

        # The netlist is stamped edge-class by edge-class with
        # vectorized index arithmetic (the per-cell python loop used to
        # dominate construction for crossbars past ~32x32).  A
        # symmetric stamp between unknowns a and b contributes
        # (a,a,+g), (b,b,+g), (a,b,-g), (b,a,-g); duplicates are summed
        # by the COO -> CSC conversion / banded accumulation.
        stamp_chunks = []  # (node_rows, node_cols, values)
        src_chunks = []  # (node_rows, source_cols, values)

        def stamp(a: np.ndarray, b: np.ndarray, g: np.ndarray) -> None:
            stamp_chunks.append(
                (
                    np.concatenate((a, b, a, b)),
                    np.concatenate((a, b, b, a)),
                    np.concatenate((g, g, -g, -g)),
                )
            )

        def stamp_to_source(a: np.ndarray, source: np.ndarray, g: np.ndarray) -> None:
            stamp_chunks.append((a, a, g))
            src_chunks.append((a, source, g))

        # Devices in column 0 bridge the driven source node W(i,0) to
        # B(i,0) directly.
        b_col0 = n_w + i_all * m
        live0 = self.g[:, 0] > 0
        if np.any(live0):
            stamp_to_source(b_col0[live0], i_all[live0], self.g[live0, 0])
        # Devices in columns >= 1: W(i,j) -- B(i,j).
        if m > 1:
            w_nodes = i_all[:, None] * (m - 1) + np.arange(m - 1)[None, :]
            b_nodes = n_w + i_all[:, None] * m + np.arange(1, m)[None, :]
            live = self.g[:, 1:] > 0
            if np.any(live):
                stamp(w_nodes[live], b_nodes[live], self.g[:, 1:][live])
            # Wordline wire from the source node: W(i,0) -- W(i,1).
            w_first = i_all * (m - 1)
            stamp_to_source(w_first, i_all, np.full(n, g_w))
            # Interior wordline wires W(i,j) -- W(i,j+1), j >= 1.
            if m > 2:
                w_a = (i_all[:, None] * (m - 1) + np.arange(m - 2)[None, :]).ravel()
                stamp(w_a, w_a + 1, np.full(w_a.size, g_w))
        # Bitline wires B(i,j) -- B(i+1,j).
        if n > 1:
            b_a = (n_w + np.arange(n - 1)[:, None] * m + j_all[None, :]).ravel()
            stamp(b_a, b_a + m, np.full(b_a.size, g_w))
        # Last bitline segment into the terminal node T(j).
        b_last = n_w + (n - 1) * m + j_all
        t_nodes = n_w + n * m + j_all
        stamp(b_last, t_nodes, np.full(m, g_w))
        # Terminal loads T(j) -- ground.
        stamp_chunks.append((t_nodes, t_nodes, np.full(m, self.g_s)))

        rows_idx = np.concatenate([c[0] for c in stamp_chunks])
        cols_idx = np.concatenate([c[1] for c in stamp_chunks])
        data = np.concatenate([c[2] for c in stamp_chunks])
        if src_chunks:
            src_rows = np.concatenate([c[0] for c in src_chunks])
            src_cols = np.concatenate([c[1] for c in src_chunks])
            src_data = np.concatenate([c[2] for c in src_chunks])
        else:  # degenerate 1-column crossbar with every device off
            src_rows = src_cols = np.empty(0, dtype=np.intp)
            src_data = np.empty(0)

        import scipy.sparse as sp

        self._source_map = sp.coo_matrix(
            (src_data, (src_rows, src_cols)), shape=(n_nodes, n)
        ).tocsc()
        # Densified once at build time: (n_nodes, rows) is small (the
        # source map has one column per input port), and a plain
        # ndarray matmul avoids both the per-solve densification and
        # the deprecated np.matrix semantics of ``.todense()``.
        self._source_map_dense = np.asarray(  # repro-lint: disable=RPR007
            self._source_map.toarray(), dtype=float)
        self._n_nodes = n_nodes

        data_arr = np.asarray(data, dtype=float)  # repro-lint: disable=RPR007
        rows_arr = np.asarray(rows_idx, dtype=np.intp)
        cols_arr = np.asarray(cols_idx, dtype=np.intp)
        choice = self.solver
        if choice == "auto":
            choice = "banded" if min(n, m) <= BANDED_AUTO_MAX_SHORT_SIDE else "lu"

        t0 = time.perf_counter()
        if choice == "banded":
            try:
                self._factorize_banded(data_arr, rows_arr, cols_arr)
                self.solver_used = "banded"
                obs_metrics.counter("mna_banded_factorizations").inc()
            except np.linalg.LinAlgError:  # the class scipy.linalg raises
                _log.warning(
                    "banded Cholesky failed, falling back to sparse LU",
                    extra={"fields": {"rows": n, "cols": m}},
                )
                choice = "lu"
        if choice == "lu":
            import scipy.sparse.linalg as spla

            matrix = sp.coo_matrix(
                (data_arr, (rows_arr, cols_arr)), shape=(n_nodes, n_nodes)
            ).tocsc()
            self._factorized = spla.factorized(matrix)
            self.solver_used = "lu"
        factorize_seconds = time.perf_counter() - t0
        obs_metrics.counter("mna_factorizations").inc()
        obs_metrics.histogram("mna_factorize_seconds").observe(factorize_seconds)
        _log.debug(
            "factorized MNA system",
            extra={
                "fields": {
                    "rows": n,
                    "cols": m,
                    "nodes": n_nodes,
                    "solver": self.solver_used,
                    "bandwidth": self.bandwidth,
                    "seconds": round(factorize_seconds, 6),
                }
            },
        )

    # -- banded fast path ----------------------------------------------

    def _band_positions(self) -> np.ndarray:
        """Analytic bandwidth-minimizing node ordering for the grid.

        Unknowns are renumbered slice by slice along the *longer* axis,
        interleaving wordline and bitline nodes within a slice; every
        netlist edge then connects nodes at most ~``2 * min(rows,
        cols)`` positions apart.  Returns ``pos`` with ``pos[node] =
        banded position``.
        """
        n, m, n_w = self.rows, self.cols, self._n_w
        pos = np.empty(self._n_nodes, dtype=np.intp)
        if m <= n:
            # Slice by wordline row i: [B(i,0), W(i,1), B(i,1), ...,
            # W(i,m-1), B(i,m-1)]; all T(j) appended after the last
            # slice (they only touch B(n-1,j)).  Bandwidth 2m-1.
            s = 2 * m - 1
            i = np.arange(n)[:, None]
            if m > 1:
                j = np.arange(1, m)[None, :]
                pos[(i * (m - 1) + (j - 1)).ravel()] = (i * s + 2 * j - 1).ravel()
            j = np.arange(m)[None, :]
            pos[(n_w + i * m + j).ravel()] = (i * s + 2 * j).ravel()
            pos[n_w + n * m + np.arange(m)] = n * s + np.arange(m)
        else:
            # Slice by bit column j: [W(0,j), B(0,j), ..., W(n-1,j),
            # B(n-1,j), T(j)] (column 0 has no W nodes).  Bandwidth
            # 2n+1.
            base = np.empty(m, dtype=np.intp)
            base[0] = 0
            base[1:] = (n + 1) + (2 * n + 1) * np.arange(m - 1)
            i = np.arange(n)[:, None]
            j = np.arange(1, m)[None, :]
            pos[(i * (m - 1) + (j - 1)).ravel()] = (base[j] + 2 * i).ravel()
            pos[(n_w + i * m + j).ravel()] = (base[j] + 2 * i + 1).ravel()
            pos[n_w + i.ravel() * m] = i.ravel()
            pos[n_w + n * m] = base[0] + n
            pos[n_w + n * m + np.arange(1, m)] = base[1:] + 2 * n
        return pos

    def _factorize_banded(
        self, data: np.ndarray, rows_idx: np.ndarray, cols_idx: np.ndarray
    ) -> None:
        """Assemble the upper-banded SPD matrix and Cholesky-factor it."""
        import scipy.linalg as la

        pos = self._band_positions()
        pr, pc = pos[rows_idx], pos[cols_idx]
        upper = pr <= pc
        pr, pc, vals = pr[upper], pc[upper], data[upper]
        bw = int(np.max(pc - pr))
        ab = np.zeros((bw + 1, self._n_nodes))
        np.add.at(ab, (bw + pr - pc, pc), vals)
        self._band_cholesky = la.cholesky_banded(ab, lower=False, check_finite=False)
        self.bandwidth = bw
        inv = np.argsort(pos)
        self._band_source_map = self._source_map_dense[inv]
        t0 = self._t_index(0)
        self._band_t_positions = pos[t0 : t0 + self.cols]

    def solve(self, v_in: np.ndarray) -> np.ndarray:
        """Solve the network for a batch of input voltage vectors.

        The batch is solved with a single multi-RHS substitution
        against the cached sparse LU factorization, so solving ``B``
        input vectors costs one factorization plus one batched
        triangular solve — not ``B`` independent solves.

        Parameters
        ----------
        v_in:
            Shape ``(batch, rows)`` or ``(rows,)``.

        Returns
        -------
        Output voltages at the bitline terminals, shape ``(batch, cols)``.
        """
        v_in = np.atleast_2d(np.asarray(v_in, dtype=float))  # repro-lint: disable=RPR007
        if v_in.shape[1] != self.rows:
            raise ValueError(f"input has {v_in.shape[1]} ports, crossbar has {self.rows} rows")
        t_start = time.perf_counter()
        if self._band_cholesky is not None:
            import scipy.linalg as la

            assert self._band_source_map is not None and self._band_t_positions is not None
            rhs = self._band_source_map @ v_in.T  # (n_nodes, batch), banded order
            solution = la.cho_solve_banded(
                (self._band_cholesky, False), rhs, check_finite=False
            )
            out = solution[self._band_t_positions].T
        else:
            assert self._factorized is not None
            rhs = self._source_map_dense @ v_in.T  # (n_nodes, batch)
            solution = self._factorized(rhs)
            t0 = self._t_index(0)
            out = solution[t0 : t0 + self.cols].T
        obs_metrics.counter("mna_solves").inc()
        obs_metrics.counter("mna_rhs_vectors").inc(v_in.shape[0])
        obs_metrics.histogram("mna_solve_seconds").observe(time.perf_counter() - t_start)
        return out

    def ideal_outputs(self, v_in: np.ndarray) -> np.ndarray:
        """Reference outputs from the zero-wire-resistance model."""
        from repro.config.dtype import astype
        from repro.xbar.crossbar import coefficients_from_conductance

        v_in = np.atleast_2d(np.asarray(v_in, dtype=float))  # repro-lint: disable=RPR007
        # The ideal model is the behavioural one, at the data-path dtype.
        return v_in @ coefficients_from_conductance(astype(self.g), self.g_s)

    def ir_drop_error(self, v_in: np.ndarray) -> float:
        """Mean |MNA - ideal| output deviation for given inputs."""
        return float(np.mean(np.abs(self.solve(v_in) - self.ideal_outputs(v_in))))
