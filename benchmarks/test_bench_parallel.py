"""Timing harness for the performance layer (``docs/performance.md``).

Measures the two levels on this machine and archives the numbers:

* level 1 — the trial-stacked Monte-Carlo robustness evaluation
  (one ``predict_trials`` call) against one ``predict(trial=t)`` call
  per trial, at the paper-scale trial count;
* level 2 — a multi-worker seed-repeat sweep on the full engine
  (stacked evaluation, training bookkeeping off) against the
  serial, fully-tracked, one-call-per-trial baseline.

Both comparisons assert bit-identical outputs before reporting any
speedup.  Results go to ``BENCH_parallel.json`` (repo root, mirrored
under ``benchmarks/out/``).  Marked ``slow``: run with

    pytest benchmarks/test_bench_parallel.py -m slow --benchmark-only
"""

import json
import pathlib
import time

import numpy as np
import pytest

from repro.core.rcs import TraditionalRCS
from repro.core.runner import repeat_with_seeds
from repro.cost.area import Topology
from repro.device.variation import NonIdealFactors
from repro.metrics.robustness import evaluate_under_noise
from repro.nn.trainer import TrainConfig
from repro.obs.runinfo import provenance_header
from repro.parallel import SerialExecutor, get_executor

pytestmark = pytest.mark.slow

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT_DIR = pathlib.Path(__file__).parent / "out"

NOISE = NonIdealFactors(sigma_pv=0.1, seed=7)
TRIALS = 100
SAMPLES = 32
SWEEP_SEEDS = 4
SWEEP_WORKERS = 4
SWEEP_SIGMAS = (0.05, 0.1, 0.15)


def _timeit(fn, repeats=5):
    """Best-of-N wall time (seconds) and the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _mae(pred, true):
    return float(np.mean(np.abs(pred - true)))


def _dataset(seed, n=SAMPLES):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, 2))
    y = 0.25 + 0.5 * (0.6 * x[:, :1] + 0.4 * x[:, 1:] ** 2)
    return x, y


def _looped_values(system, x, y, noise, trials):
    """Per-trial metric values, one ``predict`` call per trial."""
    return np.array([_mae(system.predict(x, noise, trial=t), y) for t in range(trials)])


def _train_rcs(seed, x, y, tracked):
    cfg = TrainConfig(
        epochs=10,
        batch_size=16,
        learning_rate=0.02,
        shuffle_seed=seed,
        track_train_loss=tracked,
    )
    return TraditionalRCS(Topology(2, 16, 1), seed=seed).train(x, y, cfg)


def _sweep_run(seed, optimized):
    """One seed of the sweep: train an RCS, score it at several PV levels.

    The two variants differ only in choices whose results are
    guaranteed unchanged (loss bookkeeping, one stacked call vs one
    call per trial), so their returned errors must agree bit for bit.
    """
    x, y = _dataset(seed)
    rcs = _train_rcs(seed, x, y, tracked=not optimized)
    level_means = []
    for sigma in SWEEP_SIGMAS:
        noise = NonIdealFactors(sigma_pv=sigma, seed=7)
        if optimized:
            level_means.append(evaluate_under_noise(rcs, x, y, _mae, noise, trials=TRIALS).mean)
        else:
            level_means.append(float(np.mean(_looped_values(rcs, x, y, noise, TRIALS))))
    # Fixed-order sum of per-level means: still bit-deterministic.
    return float(np.sum(level_means))


def _sweep_run_baseline(seed):
    return _sweep_run(seed, optimized=False)


def _sweep_run_optimized(seed):
    return _sweep_run(seed, optimized=True)


def _save_json(payload):
    text = json.dumps(payload, indent=2) + "\n"
    (REPO_ROOT / "BENCH_parallel.json").write_text(text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_parallel.json").write_text(text)


def test_bench_parallel(save_report):
    # -- level 1: one call per trial vs one stacked call ---------------
    x, y = _dataset(0)
    rcs = _train_rcs(0, x, y, tracked=False)
    t_looped, looped = _timeit(lambda: _looped_values(rcs, x, y, NOISE, TRIALS))
    t_vectorized, vectorized = _timeit(
        lambda: evaluate_under_noise(rcs, x, y, _mae, NOISE, trials=TRIALS)
    )
    assert np.array_equal(looped, vectorized.values)
    eval_speedup = t_looped / t_vectorized

    # -- level 2: serial tracked baseline vs multi-worker engine -------
    t_baseline, baseline = _timeit(
        lambda: repeat_with_seeds(
            _sweep_run_baseline, range(SWEEP_SEEDS), executor=SerialExecutor()
        ),
        repeats=3,
    )
    # Thread workers: the sweep's heavy ops (stacked matmuls) release
    # the GIL, and threads avoid interpreter spawn cost on small hosts.
    t_optimized, optimized = _timeit(
        lambda: repeat_with_seeds(
            _sweep_run_optimized,
            range(SWEEP_SEEDS),
            executor=get_executor(SWEEP_WORKERS, kind="thread"),
        ),
        repeats=3,
    )
    assert np.array_equal(baseline[2], optimized[2])
    sweep_speedup = t_baseline / t_optimized

    payload = {
        # Full provenance (git SHA, hostname, toolchain, REPRO_* knobs)
        # so archived trajectories stay comparable across PRs.
        "provenance": provenance_header(workers=SWEEP_WORKERS),
        "robustness_eval": {
            "system": "TraditionalRCS 2x16x1",
            "noise": {"sigma_pv": NOISE.sigma_pv, "sigma_sf": NOISE.sigma_sf},
            "trials": TRIALS,
            "samples": len(x),
            "seconds_looped": round(t_looped, 4),
            "seconds_vectorized": round(t_vectorized, 4),
            "speedup": round(eval_speedup, 2),
            "bit_identical": True,
        },
        "seed_repeat_sweep": {
            "seeds": SWEEP_SEEDS,
            "workers": SWEEP_WORKERS,
            "executor": "thread",
            "noise_levels": list(SWEEP_SIGMAS),
            "trials_per_level": TRIALS,
            "seconds_baseline": round(t_baseline, 4),
            "seconds_optimized": round(t_optimized, 4),
            "speedup": round(sweep_speedup, 2),
            "bit_identical": True,
        },
    }
    _save_json(payload)
    save_report(
        "bench_parallel",
        "Performance layer timings\n"
        f"robustness eval (trials={TRIALS}): "
        f"looped {t_looped:.3f}s, vectorized {t_vectorized:.3f}s "
        f"-> {eval_speedup:.1f}x\n"
        f"seed sweep ({SWEEP_SEEDS} seeds, {SWEEP_WORKERS} workers): "
        f"baseline {t_baseline:.3f}s, optimized {t_optimized:.3f}s "
        f"-> {sweep_speedup:.1f}x",
    )
    assert eval_speedup > 1.0
    assert sweep_speedup > 1.0
