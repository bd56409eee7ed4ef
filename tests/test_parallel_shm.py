"""Shared-memory ndarray transport (``REPRO_SHM``).

Contract: with the knob on, a process-pool map returns
results bit-identical to the default pickling path, ships each large
array into shared memory exactly once, and leaves no ``/dev/shm``
segment behind when the map completes.
"""

import glob
import pickle

import numpy as np
import pytest

from repro.parallel import RetryPolicy, get_executor
from repro.parallel.shm import SHM_MIN_BYTES, ShmRef, ShmSession, dumps, loads, shm_enabled


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


def _big(seed=0, n=256):
    # n*n float64 = 512 KiB — comfortably past SHM_MIN_BYTES.
    return np.random.default_rng(seed).standard_normal((n, n))


class TestRoundTrip:
    def test_large_array_round_trips_bit_identical(self):
        x = _big()
        with ShmSession() as session:
            blob = dumps({"x": x, "tag": "payload"}, session)
            out = loads(blob)
            assert np.array_equal(out["x"], x)
            assert out["tag"] == "payload"

    def test_small_arrays_stay_inline(self):
        x = np.arange(8.0)
        with ShmSession() as session:
            blob = dumps(x, session)
            assert session._segments == []
            # No persistent id was emitted, so a plain Unpickler works.
            assert np.array_equal(pickle.loads(blob), x)

    def test_threshold_is_configurable(self):
        x = np.arange(32.0)
        with ShmSession() as session:
            blob = dumps(x, session, min_bytes=64)
            with pytest.raises(pickle.UnpicklingError):
                pickle.loads(blob)  # persistent id present -> plain loads fails
            assert np.array_equal(loads(blob), x)

    def test_attached_view_is_read_only(self):
        x = _big()
        with ShmSession() as session:
            out = loads(dumps(x, session))
            assert not out.flags.writeable
            with pytest.raises(ValueError):
                out[0, 0] = 1.0

    def test_non_contiguous_array_round_trips(self):
        x = _big()[::2, ::2]
        assert not x.flags.c_contiguous
        with ShmSession() as session:
            assert np.array_equal(loads(dumps(x, session)), x)


class TestDedup:
    def test_one_array_many_items_one_segment(self):
        x = _big()
        items = [{"base": x, "i": i} for i in range(12)]
        with ShmSession() as session:
            for item in items:
                dumps(item, session)
            assert len(session._segments) == 1

    def test_session_counts_segments(self):
        x, y = _big(0), _big(1)
        with ShmSession() as session:
            dumps([x, x, y], session)
            dumps({"again": x}, session)
            assert len(session._segments) == 2


class TestCleanup:
    def test_session_unlinks_all_segments(self):
        before = _shm_segments()
        session = ShmSession()
        dumps(_big(), session)
        assert _shm_segments() - before  # segment exists while open
        session.close()
        assert _shm_segments() - before == set()

    def test_close_is_idempotent(self):
        session = ShmSession()
        dumps(_big(), session)
        session.close()
        session.close()


class TestKnob:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHM", raising=False)
        assert shm_enabled() is False

    def test_enabled_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "1")
        assert shm_enabled() is True


def _weighted_sum(item):
    base, w = item
    return float(base.sum() * w)


class TestExecutorIntegration:
    def test_shm_map_matches_default_and_serial(self, monkeypatch):
        base = _big()
        items = [(base, w) for w in (0.5, 1.0, 2.0, 4.0)]
        expected = get_executor(1).map(_weighted_sum, items)

        monkeypatch.delenv("REPRO_SHM", raising=False)
        default = get_executor(2, kind="process").map(_weighted_sum, items)
        monkeypatch.setenv("REPRO_SHM", "1")
        via_shm = get_executor(2, kind="process").map(_weighted_sum, items)

        assert via_shm == default == expected

    def test_shm_map_cleans_up(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "1")
        before = _shm_segments()
        base = _big()
        get_executor(2, kind="process").map(_weighted_sum, [(base, 1.0), (base, 2.0)])
        assert _shm_segments() - before == set()

    def test_unpicklable_task_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "1")
        offset = 10.0
        with pytest.warns(RuntimeWarning, match="picklable"):
            out = get_executor(2, kind="process").map(
                lambda v: v + offset, [1.0, 2.0]
            )
        assert out == [11.0, 12.0]

    def test_policy_driven_shm_map_matches_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "1")
        base = _big()
        items = [(base, w) for w in (0.5, 1.0, 2.0, 4.0)]
        expected = get_executor(1).map(_weighted_sum, items)
        via_shm = get_executor(2, kind="process").map(
            _weighted_sum, items, policy=RetryPolicy(retries=1, backoff=0)
        )
        assert via_shm == expected


def test_shmref_is_compact():
    ref = ShmRef(name="psm_x", shape=(4, 4), dtype="float64")
    assert len(pickle.dumps(ref)) < 200


def test_min_bytes_constant_is_sane():
    assert SHM_MIN_BYTES == 1 << 16


def test_worker_attach_cache_survives_repeated_items():
    # Same blob loaded twice in one process must not re-attach per load.
    x = _big()
    with ShmSession() as session:
        blob = dumps(x, session)
        a = loads(blob)
        b = loads(blob)
        assert np.array_equal(a, b)
        assert a.base is not None and b.base is not None


def test_environ_access_goes_through_knobs(monkeypatch):
    # shm_enabled must honour registry coercion, not raw env truthiness.
    monkeypatch.setenv("REPRO_SHM", "off")
    assert shm_enabled() is False
    monkeypatch.setenv("REPRO_SHM", "yes")
    assert shm_enabled() is True
