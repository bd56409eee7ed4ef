"""HTTP load for the serving workload: closed-loop bursts and an open loop.

At most ``connections`` requests are in flight at once, one thread per
connection.  The server closes every connection after its response
(``Connection: close``), so each request opens its own.

In the open loop request ``i`` is due at ``start + i / rate``; its
latency runs from that due time, so when every connection is busy the
wait of a late request counts, and how late the generator sent it is
reported separately.
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

Send = Callable[[int], "Outcome"]


@dataclass
class Outcome:
    """What one request returned: ``ok`` is False on a transport error
    or a non-200 status."""

    status: int
    outputs: Optional[np.ndarray] = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.outputs is not None


@dataclass
class Record:
    index: int
    due: float
    sent: float
    done: float
    outcome: Outcome

    @property
    def latency(self) -> float:
        """Seconds from due time to response."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the generator sent the request after its due time."""
        return self.sent - self.due


@dataclass
class Phase:
    records: List[Record] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.ended - self.started


class HttpTarget:
    """POSTs the inputs of request ``i`` (modulo their number) to
    ``/v1/predict``."""

    def __init__(self, host: str, port: int, inputs: Sequence[np.ndarray],
                 timeout: float = 30.0) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self.bodies = [json.dumps({"inputs": x.tolist()}).encode() for x in inputs]

    def __call__(self, index: int) -> Outcome:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            connection.request("POST", "/v1/predict", body=self.bodies[index % len(self.bodies)],
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            payload = response.read()
            if response.status != 200:
                return Outcome(response.status, error=payload[:200].decode("latin-1"))
            return Outcome(200, np.asarray(json.loads(payload)["outputs"], dtype=float))
        except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
            return Outcome(0, error=repr(exc))
        finally:
            connection.close()


def _run(send: Send, due: Callable[[int], Optional[float]], connections: int, first: int,
         clock: Callable[[], float], sleep: Callable[[float], None]) -> Phase:
    """Workers take the next request ``i``, wait until it is due, and send
    request ``first + i``.

    ``due(i)`` gives the due time, or None when the phase has no request
    ``i``.  A due time of ``-inf`` means "as soon as a connection is
    free" (closed loop).
    """
    phase = Phase(started=clock())
    lock = threading.Lock()
    counter = itertools.count()
    errors: List[BaseException] = []

    def worker() -> None:
        try:
            while True:
                with lock:
                    index = next(counter)
                when = due(index)
                if when is None:
                    return
                now = clock()
                if now < when:
                    sleep(when - now)
                sent = clock()
                outcome = send(first + index)
                done = clock()
                record = Record(first + index, sent if when == float("-inf") else when, sent,
                                done, outcome)
                with lock:
                    phase.records.append(record)
        except BaseException as exc:  # noqa: B036 - re-raised by the caller below
            errors.append(exc)

    if connections == 1:
        worker()
    else:
        threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    phase.ended = clock()
    phase.records.sort(key=lambda r: r.index)
    return phase


def open_loop(send: Send, rate: float, duration: float, connections: int, first: int = 0,
              clock: Callable[[], float] = time.monotonic,
              sleep: Callable[[float], None] = time.sleep) -> Phase:
    """Send ``rate * duration`` requests, from request ``first`` on, on a
    fixed schedule."""
    count = int(rate * duration)
    start = clock()
    return _run(send, lambda i: start + i / rate if i < count else None,
                connections, first, clock, sleep)


def closed_loop(send: Send, requests: int, connections: int, first: int = 0,
                clock: Callable[[], float] = time.monotonic,
                sleep: Callable[[float], None] = time.sleep) -> Phase:
    """Send requests ``first .. first + requests - 1``, each as soon as a
    connection is free; latency runs from sending."""
    return _run(send, lambda i: float("-inf") if i < requests else None,
                connections, first, clock, sleep)
