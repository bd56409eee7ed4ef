"""Zero-copy ndarray transport for process pools (``REPRO_SHM``).

A process-pool ``get_executor(...).map`` normally pickles the
task function and every item into each worker task, so a sweep that
fans one large read-only array (a dataset, a conductance matrix, a
deployed model) out to ``N`` workers serializes and copies it ``N``
times.  This module replaces those copies with POSIX shared memory:

* the parent pickles payloads with a :class:`pickle.Pickler` whose
  ``persistent_id`` hook intercepts every large ``np.ndarray`` and
  swaps it for a tiny :class:`ShmRef` handle backed by a
  :class:`multiprocessing.shared_memory.SharedMemory` segment (written
  once, deduplicated per session);
* workers resolve each handle back into a **read-only** ndarray view
  of the mapped segment — no copy, no deserialization of the bulk
  data.

The transport is opt-in via the ``REPRO_SHM`` knob (default off)
because it changes one observable contract: arrays that crossed the
boundary arrive as read-only views, so tasks must not mutate their
inputs.  Sweep tasks are pure by convention (see
:mod:`repro.parallel.executor`), which is why the default pickling
path and the shared-memory path return bit-identical results.

Lifetime: the parent-side :class:`ShmSession` owns every segment it
created and unlinks them when closed (the executor closes it after the
map completes).  Workers unregister attached segments from the
``resource_tracker`` so the tracker does not unlink storage it does
not own (bpo-39959); Linux keeps unlinked segments alive while mapped.
"""

from __future__ import annotations

import functools
import io
import multiprocessing
import pickle
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.config import knobs
from repro.obs import metrics as obs_metrics
from repro.sanitize import guards as sanitize_guards

__all__ = [
    "SHM_ENV",
    "SHM_MIN_BYTES",
    "ShmRef",
    "ShmSession",
    "ShmCall",
    "shm_enabled",
    "dumps",
    "loads",
]

SHM_ENV = "REPRO_SHM"
"""Knob enabling the shared-memory transport (default off)."""

SHM_MIN_BYTES = 1 << 16
"""Arrays smaller than this (64 KiB) pickle inline; the segment setup
cost only pays off for bulk payloads."""

_PID_TAG = "repro-shm"


def shm_enabled() -> bool:
    """True when ``REPRO_SHM`` selects the shared-memory transport."""
    return knobs.get_bool(SHM_ENV)


class ShmRef(NamedTuple):
    """Picklable handle to an ndarray stored in a shared segment."""

    name: str
    shape: Tuple[int, ...]
    dtype: str


class ShmSession:
    """Parent-side owner of the segments backing one executor map.

    ``share`` copies an array into a fresh segment (once per distinct
    array — repeated appearances of the same buffer reuse the same
    segment) and returns its :class:`ShmRef`.  ``close`` unlinks every
    segment the session created.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self._refs: list[ShmRef] = []
        self._by_buffer: Dict[Tuple[int, int, str, Tuple[int, ...]], ShmRef] = {}

    def share(self, array: np.ndarray) -> ShmRef:
        contiguous = np.ascontiguousarray(array)
        key = (
            contiguous.__array_interface__["data"][0],
            contiguous.nbytes,
            str(contiguous.dtype),
            contiguous.shape,
        )
        cached = self._by_buffer.get(key)
        if cached is not None:
            return cached
        # segment lifetime spans the whole sweep, not this call: the
        # owning ShmSession (itself context-managed) unlinks in close()
        segment = shared_memory.SharedMemory(create=True, size=contiguous.nbytes)  # repro-lint: disable=RPR010
        view = np.ndarray(contiguous.shape, dtype=contiguous.dtype, buffer=segment.buf)
        view[...] = contiguous
        self._segments.append(segment)
        ref = ShmRef(segment.name, contiguous.shape, str(contiguous.dtype))
        self._refs.append(ref)
        self._by_buffer[key] = ref
        # Read-only contract: the fanned-out segment must come back
        # bit-identical at close() (workers get non-writeable views,
        # but nothing stops a worker from re-flagging one).
        sanitize_guards.watch_buffer("shm", ref.name, view)
        obs_metrics.counter("shm_segments").inc()
        obs_metrics.counter("shm_bytes").inc(contiguous.nbytes)
        obs_metrics.gauge("shm_active_bytes").add(contiguous.nbytes)
        return ref

    def close(self) -> None:
        released = 0
        for segment, ref in zip(self._segments, self._refs):
            try:
                view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=segment.buf)
                sanitize_guards.verify_buffer("shm", ref.name, view)
                del view
            except Exception:  # pragma: no cover - segment already torn down
                pass
            try:
                released += segment.size
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        if released:
            obs_metrics.gauge("shm_active_bytes").add(-released)
        self._segments.clear()
        self._refs.clear()
        self._by_buffer.clear()

    def __enter__(self) -> "ShmSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class _ShmPickler(pickle.Pickler):
    """Pickler that diverts large ndarrays into shared memory."""

    def __init__(self, file: io.BytesIO, session: ShmSession, min_bytes: int):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._session = session
        self._min_bytes = min_bytes

    def persistent_id(self, obj: Any) -> Optional[Tuple[str, ShmRef]]:
        if isinstance(obj, np.ndarray) and obj.nbytes >= self._min_bytes:
            return (_PID_TAG, self._session.share(obj))
        return None


def dumps(obj: Any, session: ShmSession, min_bytes: int = SHM_MIN_BYTES) -> bytes:
    """Pickle ``obj``, diverting large arrays into ``session`` segments."""
    buffer = io.BytesIO()
    _ShmPickler(buffer, session, min_bytes).dump(obj)
    return buffer.getvalue()


# -- worker side -------------------------------------------------------

# Attached segments are cached (and kept referenced, which keeps the
# mapping alive) for the lifetime of the worker process.
_attached: Dict[str, shared_memory.SharedMemory] = {}


def _attach(name: str) -> shared_memory.SharedMemory:
    segment = _attached.get(name)
    if segment is None:
        # worker-side attachment is deliberately process-lived (cached in
        # _attached so views stay backed); the parent unlinks the storage
        segment = shared_memory.SharedMemory(name=name)  # repro-lint: disable=RPR010
        # Attaching registered the segment with a resource tracker.
        # Fork-started workers share the parent's tracker, where the
        # name is already registered (registration is a set add), so
        # the parent's unlink balances it.  Spawn-started workers run
        # their own tracker, which would unlink the parent's storage
        # at worker exit (bpo-39959) — unregister there.
        if multiprocessing.get_start_method(allow_none=True) != "fork":
            try:
                resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore[attr-defined]
            except Exception:  # pragma: no cover - tracker internals moved
                pass
        _attached[name] = segment
    return segment


class _ShmUnpickler(pickle.Unpickler):
    def persistent_load(self, pid: Tuple[str, ShmRef]) -> np.ndarray:
        tag, ref = pid
        if tag != _PID_TAG:  # pragma: no cover - foreign persistent id
            raise pickle.UnpicklingError(f"unknown persistent id tag {tag!r}")
        ref = ShmRef(*ref)
        segment = _attach(ref.name)
        view: np.ndarray = np.ndarray(
            ref.shape, dtype=np.dtype(ref.dtype), buffer=segment.buf
        )
        view.flags.writeable = False
        return view


def loads(blob: bytes) -> Any:
    """Unpickle a :func:`dumps` payload, resolving refs to shm views."""
    return _ShmUnpickler(io.BytesIO(blob)).load()


@functools.lru_cache(maxsize=1)  # one live task per pool; don't hoard old ones
def _cached_task(blob: bytes) -> Any:
    return loads(blob)


class ShmCall(object):
    """Worker-side trampoline: blobs in, ordinary task call out.

    Both the wrapped task function and each item travel as
    shared-memory-aware pickles; the task blob is decoded once per
    worker process and cached.
    """

    __slots__ = ("task_blob",)

    def __init__(self, task_blob: bytes):
        self.task_blob = task_blob

    def __call__(self, item_blob: bytes) -> Any:
        task = _cached_task(self.task_blob)
        return task(loads(item_blob))
