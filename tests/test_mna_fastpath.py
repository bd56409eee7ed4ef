"""The banded Cholesky fast path of the MNA solver.

Contract: the banded factorization is an internal detail — every
solver choice produces the same terminal voltages (to factorization
round-off), and ``solver="auto"`` picks banded only where it wins.
"""

import numpy as np
import pytest

from repro.xbar.mna import BANDED_AUTO_MAX_SHORT_SIDE, MNA_SOLVERS, MNACrossbar

G_S = 1e-3


def _conductances(n, m, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(1e-7, 1e-4, (n, m))


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 2), (4, 7), (16, 8), (8, 64)])
def test_banded_matches_lu(shape):
    g = _conductances(*shape)
    v = np.random.default_rng(1).uniform(0.0, 1.0, (3, shape[0]))
    lu = MNACrossbar(g, G_S, solver="lu").solve(v)
    banded = MNACrossbar(g, G_S, solver="banded").solve(v)
    # Both factorizations of the same SPD matrix; agreement is limited
    # only by round-off (measured ~1e-12 relative).
    assert np.allclose(banded, lu, rtol=1e-9, atol=1e-15)


def test_solver_used_reports_choice():
    g = _conductances(4, 4)
    assert MNACrossbar(g, G_S, solver="lu").solver_used == "lu"
    assert MNACrossbar(g, G_S, solver="banded").solver_used == "banded"


def test_auto_picks_banded_for_small_crossbars():
    g = _conductances(8, 8)
    xbar = MNACrossbar(g, G_S)  # default solver="auto"
    assert xbar.solver_used == "banded"
    assert xbar.bandwidth is not None and xbar.bandwidth > 0


def test_auto_picks_lu_beyond_threshold():
    side = BANDED_AUTO_MAX_SHORT_SIDE + 1
    g = _conductances(side, side)
    xbar = MNACrossbar(g, G_S, solver="auto")
    assert xbar.solver_used == "lu"


def test_auto_uses_short_side_not_long_side():
    # A tall skinny crossbar has a small bandwidth no matter how many
    # rows it has — banded must still be chosen.
    g = _conductances(BANDED_AUTO_MAX_SHORT_SIDE + 20, 4)
    assert MNACrossbar(g, G_S, solver="auto").solver_used == "banded"


def test_invalid_solver_rejected():
    with pytest.raises(ValueError, match="solver"):
        MNACrossbar(_conductances(2, 2), G_S, solver="qr")


def test_solver_catalogue():
    assert set(MNA_SOLVERS) == {"auto", "lu", "banded"}


def test_bandwidth_bounded_by_short_side():
    for shape in [(3, 9), (9, 3), (6, 6)]:
        xbar = MNACrossbar(_conductances(*shape), G_S, solver="banded")
        assert xbar.bandwidth <= 2 * min(shape) + 1


def test_batch_matches_single_under_banded():
    g = _conductances(5, 6)
    xbar = MNACrossbar(g, G_S, solver="banded")
    v = np.random.default_rng(2).uniform(0.0, 1.0, (4, 5))
    batched = xbar.solve(v)
    singles = np.stack([xbar.solve(row)[0] for row in v])
    assert np.array_equal(batched, singles)


def test_banded_converges_to_ideal_with_low_wire_resistance():
    g = _conductances(6, 4)
    xbar = MNACrossbar(g, G_S, wire_resistance=1e-6, solver="banded")
    v = np.eye(6)[:3]
    assert np.allclose(xbar.solve(v), xbar.ideal_outputs(v), rtol=1e-4)


def test_dead_devices_handled():
    # All-off column exercises the empty-source-chunk guard.
    g = _conductances(4, 3)
    g[:, 1] = 0.0
    lu = MNACrossbar(g, G_S, solver="lu").solve(np.ones(4))
    banded = MNACrossbar(g, G_S, solver="banded").solve(np.ones(4))
    assert np.allclose(banded, lu, rtol=1e-9, atol=1e-15)


def test_single_column_all_dead():
    g = np.zeros((3, 1))
    out = MNACrossbar(g, G_S, solver="banded").solve(np.ones(3))
    assert np.allclose(out, 0.0)


def test_banded_counts_factorizations():
    from repro.obs import metrics as obs_metrics

    before = obs_metrics.counter("mna_banded_factorizations").value
    MNACrossbar(_conductances(3, 3), G_S, solver="banded")
    assert obs_metrics.counter("mna_banded_factorizations").value == before + 1


def test_failed_banded_cholesky_falls_back_to_lu(monkeypatch):
    import scipy.linalg

    def not_positive_definite(*args, **kwargs):
        raise scipy.linalg.LinAlgError("leading minor not positive definite")

    g = _conductances(4, 7)
    v = np.random.default_rng(1).uniform(0.0, 1.0, (3, 4))
    lu = MNACrossbar(g, G_S, solver="lu").solve(v)
    monkeypatch.setattr(scipy.linalg, "cholesky_banded", not_positive_definite)
    for solver in ("banded", "auto"):
        xbar = MNACrossbar(g, G_S, solver=solver)
        assert xbar.solver_used == "lu"
        assert np.array_equal(xbar.solve(v), lu)
