"""Span-based wall-clock tracing for the experiment pipeline.

A *span* measures one named stage of a run::

    from repro.obs.trace import span

    with span("table1/fft/train", epochs=300) as sp:
        ...work...
        sp.set(final_loss=0.012)

Spans nest via a per-thread stack: a span opened inside another
records the full slash-joined path (``table1/row:fft/train``), so the
flat record list reconstructs the tree.  Tracing is **off by default**
— ``span()`` then returns a shared no-op object whose enter/exit cost
is a single global check, keeping hot paths clean.  Enable with the
``REPRO_TRACE=1`` environment variable, the CLI's ``--trace`` flag, or
:func:`enable`.

The collector is thread-safe (one lock-guarded list per process) and
*process-mergeable*: :mod:`repro.parallel` executors ship the spans a
worker produced back to the parent (see :func:`mark`,
:func:`records_since`, :func:`absorb`), so a process-pool sweep
yields the same tree a serial run would.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.config import knobs

__all__ = [
    "TRACE_ENV",
    "SpanRecord",
    "span",
    "enabled",
    "enable",
    "set_context",
    "current_path",
    "get_records",
    "clear",
    "mark",
    "records_since",
    "absorb",
    "span_tree",
    "render_tree",
]

TRACE_ENV = "REPRO_TRACE"
"""Set to ``1`` to enable span collection."""

_lock = threading.RLock()
_records: "List[SpanRecord]" = []
_seq = itertools.count()
_state = threading.local()
_enabled: "Optional[bool]" = None
"""Tri-state: None = not yet resolved from the REPRO_TRACE knob.
Resolved on first use (never at import time — repro-lint RPR008) so
tests and callers can set the environment after importing the module."""


@dataclass(frozen=True)
class SpanRecord:
    """One finished span (picklable, so workers can ship it home)."""

    name: str
    path: str
    start: float
    """Wall-clock start (``time.time()``, comparable across processes)."""
    duration: float
    """Wall time in seconds (monotonic clock)."""
    attrs: Dict[str, object] = field(default_factory=dict)
    pid: int = 0
    thread: str = ""
    seq: int = 0

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def enabled() -> bool:
    global _enabled
    if _enabled is None:
        _enabled = knobs.get_bool(TRACE_ENV)
    return _enabled


def enable(on: bool = True) -> None:
    """Turn span collection on/off for this process."""
    global _enabled
    _enabled = bool(on)


def _stack() -> List[str]:
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = []
        _state.stack = stack
    return stack


def set_context(path: str) -> None:
    """Seed this thread's span stack with a parent path.

    Executor workers call this so their spans nest under the span that
    launched the sweep (``path`` is the launcher's
    :func:`current_path`).
    """
    _state.stack = [part for part in path.split("/") if part]


def current_path() -> str:
    """Slash-joined path of the innermost open span ("" at top level)."""
    return "/".join(_stack())


class _NoopSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("name", "attrs", "path", "_t0", "_wall")

    def __init__(self, name: str, attrs: Dict[str, object]):
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        stack = _stack()
        stack.append(self.name)
        self.path = "/".join(stack)
        self._wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def set(self, **attrs) -> "_Span":
        """Attach attributes to the span before it closes."""
        self.attrs.update(attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._t0
        stack = _stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        record = SpanRecord(
            name=self.name,
            path=self.path,
            start=self._wall,
            duration=duration,
            attrs=dict(self.attrs),
            pid=os.getpid(),
            thread=threading.current_thread().name,
            seq=next(_seq),
        )
        with _lock:
            _records.append(record)


def span(name: str, **attrs):
    """Open a span; a no-op unless tracing is enabled."""
    if not enabled():
        return _NOOP
    return _Span(name, attrs)


def get_records() -> List[SpanRecord]:
    """Snapshot of all collected spans, in completion order."""
    with _lock:
        return list(_records)


def clear() -> None:
    with _lock:
        _records.clear()


def mark() -> int:
    """Position marker; pair with :func:`records_since`."""
    with _lock:
        return len(_records)


def records_since(marker: int) -> List[SpanRecord]:
    """Spans completed after ``marker`` (what a worker ships home)."""
    with _lock:
        return list(_records[marker:])


def absorb(records: Sequence[SpanRecord], prefix: str = "") -> None:
    """Merge spans shipped from a worker into this process's collector."""
    if not records:
        return
    if prefix:
        records = [
            replace(r, path=f"{prefix}/{r.path}", seq=next(_seq)) for r in records
        ]
    with _lock:
        _records.extend(records)


def span_tree(records: Optional[Sequence[SpanRecord]] = None) -> Dict[str, object]:
    """Aggregate records into a nested tree keyed by span path.

    Sibling spans sharing a path (e.g. repeated rounds) merge into one
    node with ``count``/``total_seconds`` accumulated; ``attrs`` keeps
    the last occurrence's attributes.
    """
    if records is None:
        records = get_records()

    def _node(name: str, path: str) -> Dict[str, object]:
        return {
            "name": name,
            "path": path,
            "count": 0,
            "total_seconds": 0.0,
            "attrs": {},
            "children": {},
        }

    root = _node("", "")
    for record in sorted(records, key=lambda r: (r.start, r.seq)):
        parts = [p for p in record.path.split("/") if p]
        node = root
        for depth, part in enumerate(parts):
            children = node["children"]
            if part not in children:
                children[part] = _node(part, "/".join(parts[: depth + 1]))
            node = children[part]
        node["count"] += 1
        node["total_seconds"] += record.duration
        node["attrs"] = dict(record.attrs)

    def _finalize(node: Dict[str, object]) -> Dict[str, object]:
        node["total_seconds"] = round(float(node["total_seconds"]), 6)
        node["children"] = [_finalize(c) for c in node["children"].values()]
        return node

    return _finalize(root)


def render_tree(tree: Optional[Dict[str, object]] = None, indent: str = "  ") -> str:
    """Human-readable span tree (for logs and docs)."""
    if tree is None:
        tree = span_tree()

    lines: List[str] = []

    def _walk(node: Dict[str, object], depth: int) -> None:
        if node["name"]:
            count = f" x{node['count']}" if node["count"] > 1 else ""
            lines.append(
                f"{indent * depth}{node['name']}{count}  {node['total_seconds']:.3f}s"
            )
        for child in node["children"]:
            _walk(child, depth + (1 if node["name"] else 0))

    _walk(tree, 0)
    return "\n".join(lines)
