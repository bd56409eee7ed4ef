"""Closed-loop load generator for the inference service.

``run_loadgen`` drives ``POST /v1/predict`` from ``concurrency``
worker threads, each issuing requests back-to-back until the target
count is reached, and reports sustained requests/sec plus client-side
latency quantiles.  Used by the ``python -m repro serve --smoke`` CI
step, which checks that every request is answered; serving speed is
measured by perfbench's ``serve-fft`` workload.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple
from urllib.parse import urlsplit

import numpy as np

from repro.obs.log import get_logger

__all__ = ["LoadgenResult", "run_loadgen"]

_log = get_logger("serve.loadgen")


@dataclass
class LoadgenResult:
    """Aggregate outcome of one load-generation run."""

    requests: int
    ok: int
    shed: int
    errors: int
    duration_seconds: float
    requests_per_second: float
    latency_p50_ms: float
    latency_p99_ms: float
    latencies_ms: List[float] = field(default_factory=list, repr=False)

    def as_dict(self) -> Dict[str, float]:
        """Flat JSON/history-ready metrics (latency list elided)."""
        return {
            "requests": float(self.requests),
            "ok": float(self.ok),
            "shed": float(self.shed),
            "errors": float(self.errors),
            "duration_seconds": self.duration_seconds,
            "requests_per_second": self.requests_per_second,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
        }


def _post_predict(host: str, port: int, inputs: List[List[float]],
                  timeout: float) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = json.dumps({"inputs": inputs})
        connection.request(
            "POST", "/v1/predict", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def run_loadgen(
    url: str,
    in_dim: int,
    requests: int = 200,
    concurrency: int = 8,
    samples_per_request: int = 1,
    seed: int = 0,
    timeout: float = 30.0,
) -> LoadgenResult:
    """Drive the service at ``url`` and measure sustained throughput.

    Inputs are uniform unit-interval samples from a seeded generator,
    so runs are reproducible.  503 responses count as ``shed`` (the
    service protecting itself), anything else non-200 as ``errors``.
    """
    split = urlsplit(url)
    host, port = split.hostname or "127.0.0.1", split.port or 80
    rng = np.random.default_rng(seed)
    payloads = [
        rng.uniform(0.0, 1.0, size=(samples_per_request, in_dim)).tolist()
        for _ in range(requests)
    ]
    counter = {"next": 0}
    counter_lock = threading.Lock()
    latencies: List[float] = []
    outcomes = {"ok": 0, "shed": 0, "errors": 0}
    record_lock = threading.Lock()

    def _worker() -> None:
        while True:
            with counter_lock:
                index = counter["next"]
                if index >= requests:
                    return
                counter["next"] = index + 1
            begin = time.perf_counter()
            try:
                status, _ = _post_predict(host, port, payloads[index], timeout)
            except OSError as exc:
                _log.warning("loadgen request failed",
                             extra={"fields": {"error": repr(exc)}})
                with record_lock:
                    outcomes["errors"] += 1
                continue
            elapsed_ms = (time.perf_counter() - begin) * 1e3
            with record_lock:
                if status == 200:
                    outcomes["ok"] += 1
                    latencies.append(elapsed_ms)
                elif status == 503:
                    outcomes["shed"] += 1
                else:
                    outcomes["errors"] += 1

    threads = [
        threading.Thread(target=_worker, name=f"repro-loadgen-{i}", daemon=True)
        for i in range(max(1, concurrency))
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duration = max(time.perf_counter() - start, 1e-9)

    sorted_latencies = sorted(latencies)
    p50 = float(np.percentile(sorted_latencies, 50)) if sorted_latencies else float("nan")
    p99 = float(np.percentile(sorted_latencies, 99)) if sorted_latencies else float("nan")
    return LoadgenResult(
        requests=requests,
        ok=outcomes["ok"],
        shed=outcomes["shed"],
        errors=outcomes["errors"],
        duration_seconds=duration,
        requests_per_second=outcomes["ok"] / duration,
        latency_p50_ms=p50,
        latency_p99_ms=p99,
        latencies_ms=latencies,
    )
