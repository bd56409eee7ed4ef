"""Loadgen benchmark for the inference serving layer.

Trains the ``fft`` workload with the Table-1 recipe at the ambient
scale, materializes it through the on-disk artifact (save -> load),
**asserts the served path is bit-identical** to the in-process system,
then drives the asyncio HTTP front with the closed-loop load generator
and reports sustained requests/sec plus client-side p50/p99 latency.

Results go to ``BENCH_serve.json`` (repo root, mirrored under
``benchmarks/out/``); ``python -m repro bench`` ingests the payload as
``bench_serve.*`` history metrics and ``python -m repro compare``
gates them against the committed baseline (throughput/latency are
perf-class — advisory unless ``--strict``; the ok/shed/error counts
are exact).  Marked ``slow``: run with

    pytest benchmarks/test_bench_serve.py -m slow
"""

import json
import pathlib

import numpy as np
import pytest

from repro.obs.runinfo import provenance_header
from repro.serve import (
    BackgroundServer,
    BatchPolicy,
    InferenceEngine,
    load_artifact,
    run_loadgen,
    save_artifact,
    train_serve_system,
)

pytestmark = pytest.mark.slow

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT_DIR = pathlib.Path(__file__).parent / "out"

BENCHMARK = "fft"
LOADGEN_REQUESTS = 200
LOADGEN_CONCURRENCY = 8
SAMPLES_PER_REQUEST = 2


def _save_json(payload):
    text = json.dumps(payload, indent=2) + "\n"
    (REPO_ROOT / "BENCH_serve.json").write_text(text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_serve.json").write_text(text)


def test_bench_serve(scale, save_report, tmp_path):
    system, data = train_serve_system(BENCHMARK, scale=scale, seed=0)

    # The artifact path IS the serving path: save -> load -> serve.
    model = load_artifact(
        save_artifact(system, tmp_path / f"serve-{BENCHMARK}.npz", benchmark=BENCHMARK)
    )

    # Bit-identity gate before any timing: the loaded system must
    # reproduce the live system exactly on the held-out split.
    probe = np.clip(data.x_test[:16], 0.0, 1.0)
    expected = system.predict_trials(probe, trials=1)[0]
    assert np.array_equal(InferenceEngine(model.system).predict(probe), expected)

    policy = BatchPolicy.from_knobs()
    with BackgroundServer(model, port=0, policy=policy) as server:
        result = run_loadgen(
            server.url,
            in_dim=InferenceEngine(model.system).in_dim,
            requests=LOADGEN_REQUESTS,
            concurrency=LOADGEN_CONCURRENCY,
            samples_per_request=SAMPLES_PER_REQUEST,
            seed=0,
        )

    payload = {
        "provenance": provenance_header(),
        "benchmark": BENCHMARK,
        "scale": scale.name,
        "interface": model.interface,
        "policy": {
            "max_batch": policy.max_batch,
            "queue_limit": policy.queue_limit,
        },
        "loadgen": result.as_dict(),
        "bit_identical": True,
    }
    _save_json(payload)
    save_report(
        "bench_serve",
        "Inference serving loadgen\n"
        f"benchmark {BENCHMARK} ({model.kind}), scale {scale.name}, "
        f"{LOADGEN_REQUESTS} requests x {SAMPLES_PER_REQUEST} samples, "
        f"concurrency {LOADGEN_CONCURRENCY}\n"
        f"sustained {result.requests_per_second:.0f} req/s, "
        f"p50 {result.latency_p50_ms:.2f} ms, p99 {result.latency_p99_ms:.2f} ms\n"
        f"ok {result.ok}/{result.requests}, shed {result.shed}, "
        f"errors {result.errors}",
    )

    # Acceptance: every request served (no shedding at this offered
    # load, no transport errors) at a deliberately conservative floor —
    # the smoke run sustains hundreds of req/s; regressions in the
    # actual numbers are caught by the compare gate, not by this floor.
    assert result.ok == result.requests
    assert result.shed == 0
    assert result.errors == 0
    assert result.requests_per_second > 20.0
