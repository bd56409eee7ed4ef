"""In-memory span tracing around the public functions of each layer.

The benchmark measures the program as shipped: the traced run wraps the
public functions of ``repro`` from here, at the places their callers
look them up, and the untraced runs install nothing.  A span records
its name, start, end, parent span and the id of the request it belongs
to; spans stay in memory and are written out when the run ends.

Times come from ``time.monotonic``, which on Linux reads the
system-wide ``CLOCK_MONOTONIC``, so spans of the benchmark process and
of the traced server process share one time axis.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import math
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

REQUEST_ID: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "perfbench_request", default=None
)
"""Id of the request the current code runs for (server side: set by the
``serve.validate`` wrapper, which is the first layer call of a request)."""


@dataclass
class Span:
    name: str
    start: float
    end: Optional[float] = None
    parent: Optional[int] = None
    request: Optional[str] = None
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start


class Tracer:
    """Collects spans; the parent of a span is the innermost open span of
    the same thread."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._requests = itertools.count()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, nested: bool = True) -> int:
        """Open a span; ``nested=False`` opens one that ends on another
        thread (it is nobody's parent)."""
        stack = self._stack()
        span = Span(
            name=name,
            start=self.clock(),
            parent=stack[-1] if stack else None,
            request=REQUEST_ID.get(),
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        if nested:
            stack.append(index)
        return index

    def end(self, index: int, nested: bool = True, **attrs: float) -> None:
        span = self.spans[index]
        span.end = self.clock()
        span.attrs.update(attrs)
        if nested:
            stack = self._stack()
            if stack and stack[-1] == index:
                stack.pop()

    def new_request(self) -> str:
        """Start a new request: later spans of this context carry its id."""
        request = f"r{next(self._requests)}"
        REQUEST_ID.set(request)
        return request


def dump(spans: Sequence[Span], path: str) -> None:
    with open(path, "w") as fh:
        json.dump([asdict(s) for s in spans], fh)


def merge(*groups: Sequence[Span]) -> List[Span]:
    """Concatenate span lists, re-basing each group's parent indices."""
    merged: List[Span] = []
    for group in groups:
        base = len(merged)
        for span in group:
            parent = None if span.parent is None else span.parent + base
            merged.append(Span(span.name, span.start, span.end, parent,
                               span.request, dict(span.attrs)))
    return merged


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None and span.end is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        if span.end is None:
            out.append(0.0)
            continue
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.duration - covered)
    return out


# -- wrapping the program's public functions --------------------------------

Attrs = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass(frozen=True)
class Site:
    """One place a caller looks a public function up: ``module`` and a
    dotted ``attr`` (``Class.method`` or a module-level name)."""

    module: str
    attr: str


@dataclass(frozen=True)
class Probe:
    span: str
    sites: Tuple[Site, ...]
    attrs: Optional[Attrs] = None
    kind: str = "call"
    """``call``: span around the call.  ``request``: also starts a new
    request id.  ``future``: the span ends when the returned future
    completes.  ``counting``: the second argument is a callable whose
    calls are counted into the ``candidates`` attribute."""


def _owner(site: Site):
    owner = importlib.import_module(site.module)
    *path, name = site.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _wrapper(tracer: Tracer, probe: Probe, fn: Callable) -> Callable:
    if probe.kind == "future":

        def wrapped(*args, **kwargs):
            index = tracer.begin(probe.span, nested=False)
            try:
                future = fn(*args, **kwargs)
            except BaseException:
                tracer.end(index, nested=False, error=1.0)
                raise
            future.add_done_callback(lambda _f: tracer.end(index, nested=False))
            return future

    elif probe.kind == "counting":

        def wrapped(*args, **kwargs):
            calls = [0]
            inner = args[1]

            def counted(*a, **k):
                calls[0] += 1
                return inner(*a, **k)

            index = tracer.begin(probe.span)
            try:
                return fn(args[0], counted, *args[2:], **kwargs)
            finally:
                tracer.end(index, candidates=float(calls[0]))

    else:

        def wrapped(*args, **kwargs):
            if probe.kind == "request":
                tracer.new_request()
            index = tracer.begin(probe.span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                attrs = probe.attrs(args, kwargs, result) if probe.attrs else {}
                tracer.end(index, **attrs)

    wrapped.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapped


class Installed:
    """Wrappers installed by :func:`install`; ``remove`` restores the
    original attributes."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def remove(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def install(tracer: Tracer, probes: Iterable[Probe]) -> Installed:
    installed = Installed()
    try:
        for probe in probes:
            for site in probe.sites:
                owner, name = _owner(site)
                # The class __dict__ entry, not the bound lookup, so that
                # remove() puts back exactly what was there.
                original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
                installed._saved.append((owner, name, original))
                setattr(owner, name, _wrapper(tracer, probe, original))
    except BaseException:
        installed.remove()
        raise
    return installed


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Calls, seconds and self seconds of each span name."""
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0.0, "seconds": 0.0, "self_seconds": 0.0})
        row["calls"] += 1
        row["seconds"] += span.duration
        row["self_seconds"] += own
    return table


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values) if values else 0.0
