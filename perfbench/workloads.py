"""The workloads: a Fig.-5 Monte-Carlo sweep, and serving the pruned
Table-1 MEI over HTTP.

Each workload function takes the seed, the measured duration and the
trace flag, and returns a :class:`Outcome`.  Untraced runs report the
end-to-end metrics and install no wrappers.  Traced runs wrap the
layers (``layers.CHAIN``, and ``layers.SERVE`` inside the server), set
up once, and run the timed phase both traced and untraced on the same
state to measure what tracing costs: sweeps and closed-loop bursts
alternate between the two.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import harness
import layers
import loadclient
import tracing
from harness import OUT_DIR, ROOT, Checks, median, tail

clock = time.monotonic

SETUP_REPEATS = 3
"""Set-up runs per untraced run; ``setup_s`` is their median."""

MODEL_SEED = 0
"""Seed of the data and training of the systems the Monte-Carlo and
serving workloads set up.  The workload seed draws their inputs (noise
and requests), so one model is measured under many input streams."""


@dataclass
class Outcome:
    metrics: Dict[str, float]
    checks: Checks
    digest: str
    details: Dict[str, object] = field(default_factory=dict)


class Tracing:
    """Wrappers in while inside the block, spans collected; the block can
    be entered again, and spans accumulate in one tracer."""

    def __init__(self) -> None:
        self.tracer = tracing.Tracer()
        self._installed: Optional[tracing.Installed] = None

    def __enter__(self) -> "Tracing":
        self._installed = tracing.install(self.tracer, layers.CHAIN)
        return self

    def __exit__(self, *exc: object) -> None:
        if self._installed is not None:
            self._installed.remove()


def _mapping_hit_ratio() -> float:
    from repro.xbar.mapping import mapping_cache_stats

    return mapping_cache_stats()["hit_rate"]


def _layer_metrics(name: str, seed: int, details: Dict[str, object],
                   spans: Sequence[tracing.Span], overhead: float, hit_ratio: float,
                   server: Optional[Dict[str, float]] = None,
                   failed: int = 0) -> Dict[str, float]:
    """Per-layer metrics of a traced run; its spans go to
    ``.perfbench_out/trace-<workload>-<seed>.json`` and the calls, seconds
    and self seconds of each wrapped function to ``details``."""
    tracing.dump(spans, str(OUT_DIR / f"trace-{name}-{seed}.json"))
    details["layers"] = tracing.summarize(spans)
    server = server or {}
    return layers.per_layer(spans, {
        "mapping_cache_hit_ratio": hit_ratio,
        "serve_shed": server.get("serve_shed", 0.0),
        "serve_retries": server.get("serve_retries", 0.0),
        "serve_failed": float(failed),
        "tracing_overhead_frac": overhead,
    })


def _latencies(unit_seconds: Sequence[float], details: Dict[str, object]) -> Dict[str, float]:
    """Median latency; the tail (p99 when the sample has ten values
    beyond it) goes to ``details``: too noisy on a shared host to gate."""
    p99 = tail(unit_seconds)
    details["latency_tail_ms"] = {**p99, "value": 1000.0 * p99["value"]}
    return {"latency_p50_ms": 1000.0 * median(unit_seconds)}


def _savings(topology, deployed, members: int = 1) -> Dict[str, float]:
    """Eq. 6/7 saving of ``members`` deployed MEIs against the AD/DA RCS."""
    from repro.cost.power import savings
    from repro.experiments.table1 import calibrated_params

    params = calibrated_params()
    out = {}
    for metric in ("area", "power"):
        report = savings(topology, deployed, params[metric])
        out[f"{metric}_saved"] = 1.0 - members * report.mei / report.traditional
    return out


# -- fig5-mc-jpeg -----------------------------------------------------------------

MC_BENCH = "jpeg"
MC_LEARNERS = 3
MC_EPOCHS = 5
"""Training epochs of each SAAB member in set-up (Fig. 5's quick recipe
uses ``QUICK_SCALE.epochs``; the sweep's cost does not depend on it)."""
MC_NOISE_TYPES = ("pv", "sf")


def _mc_setup(seed: int):
    """The Fig. 5 SAAB of jpeg MEI learners (``experiments.fig5``)."""
    from repro.core.mei import MEI, MEIConfig
    from repro.core.runner import QUICK_SCALE, train_config, train_samples_for
    from repro.core.saab import SAAB, SAABConfig
    from repro.device.variation import NonIdealFactors
    from repro.workloads.registry import PAPER_TABLE1, make_benchmark

    bench = make_benchmark(MC_BENCH)
    data = bench.dataset(n_train=train_samples_for(MC_BENCH, QUICK_SCALE),
                         n_test=QUICK_SCALE.n_test, seed=seed)
    topology = bench.spec.topology
    config = MEIConfig(topology.inputs, topology.outputs,
                       PAPER_TABLE1[MC_BENCH].pruned_mei.hidden, topology.bits)
    saab = SAAB(
        lambda i: MEI(config, seed=seed + 1 + i),
        SAABConfig(n_learners=MC_LEARNERS, compare_bits=5,
                   noise=NonIdealFactors(sigma_pv=0.05, sigma_sf=0.05, seed=seed), seed=seed),
    ).train(data.x_train, data.y_train,
            train_config(dataclasses.replace(QUICK_SCALE, epochs=MC_EPOCHS), seed))
    return bench, data, saab


def _mc_levels(seed: int):
    from repro.device.variation import NonIdealFactors
    from repro.experiments.fig5 import DEFAULT_SIGMAS

    levels = []
    for kind in MC_NOISE_TYPES:
        for sigma in (s for s in DEFAULT_SIGMAS if s > 0):
            amount = {"sigma_pv" if kind == "pv" else "sigma_sf": float(sigma)}
            levels.append((kind, float(sigma), NonIdealFactors(seed=seed + 99, **amount)))
    return levels


@dataclass
class Sweeps:
    sweep_seconds: List[float] = field(default_factory=list)
    call_seconds: List[float] = field(default_factory=list)
    samples: int = 0
    values: List[List[np.ndarray]] = field(default_factory=list)

    @property
    def samples_per_s(self) -> float:
        return self.samples / math.fsum(self.sweep_seconds)

    def sweep(self, bench, data, saab, levels) -> None:
        """One PV+SF sweep of the SAAB over the test split."""
        from repro.core.runner import QUICK_SCALE
        from repro.metrics import robustness

        t0 = clock()
        values = []
        for _kind, _sigma, noise in levels:
            t1 = clock()
            evaluation = robustness.evaluate_under_noise(
                saab, data.x_test, data.y_test, bench.error_normalized, noise,
                trials=QUICK_SCALE.noise_trials)
            self.call_seconds.append(clock() - t1)
            self.samples += evaluation.trials * len(data.x_test)
            values.append(evaluation.values)
        self.sweep_seconds.append(clock() - t0)
        self.values.append(values)


def fig5_mc(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.core.runner import QUICK_SCALE

    checks = Checks()
    levels = _mc_levels(seed)
    details: Dict[str, object] = {
        "benchmark": MC_BENCH, "model_seed": MODEL_SEED, "learners": MC_LEARNERS,
        "train_epochs": MC_EPOCHS,
        "trials_per_level": QUICK_SCALE.noise_trials,
        "levels": [(kind, sigma) for kind, sigma, _ in levels],
    }
    run = Sweeps()
    if trace:
        traced = Tracing()
        with traced:
            bench, data, saab = _mc_setup(MODEL_SEED)
        # Traced and untraced sweeps alternate, so drift in host speed
        # hits both alike.
        plain = Sweeps()
        start = clock()
        while not plain.sweep_seconds or clock() - start < 2 * seconds:
            with traced:
                run.sweep(bench, data, saab, levels)
            plain.sweep(bench, data, saab, levels)
        hit_ratio = _mapping_hit_ratio()
        overhead = plain.samples_per_s / run.samples_per_s - 1.0
        metrics = _layer_metrics("fig5-mc-jpeg", seed, details, traced.tracer.spans,
                                 overhead, hit_ratio)
    else:
        setup, alphas = [], []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            bench, data, saab = _mc_setup(MODEL_SEED)
            setup.append(clock() - t0)
            alphas.append(list(saab.alphas))
        checks.check(all(a == alphas[0] for a in alphas), "set-up repeats trained differently")
        start = clock()
        while not run.sweep_seconds or clock() - start < seconds:
            run.sweep(bench, data, saab, levels)
        topology = bench.spec.topology
        metrics = {
            "setup_s": median(setup),
            "wall_s": median(run.sweep_seconds),
            "samples_per_s": run.samples_per_s,
            "requests_per_s": len(run.call_seconds) / math.fsum(run.sweep_seconds),
            **_latencies(run.call_seconds, details),
            "peak_rss_mb": harness.vm_hwm_mb(),
            "app_error": float(np.mean([np.mean(v) for v in run.values[0]])),
            **_savings(topology, saab.learners[0].topology(), MC_LEARNERS),
        }
        details["setup_seconds"] = setup
        details["sweep_seconds"] = run.sweep_seconds
    for values in run.values[1:]:
        checks.check(all(np.array_equal(a, b) for a, b in zip(values, run.values[0])),
                     "repeated sweeps of one seed differ")
    # The batched Monte-Carlo path must equal the serial per-trial one.
    trials = QUICK_SCALE.noise_trials
    probes = []
    for kind, sigma, noise in (levels[0], levels[len(levels) // 2]):
        stack = saab.predict_trials(data.x_test, noise, trials=trials)
        for t in (0, trials - 1):
            serial = saab.predict(data.x_test, noise, trial=t)
            checks.check(np.array_equal(stack[t], serial),
                         f"predict_trials[{t}] != predict(trial={t}) at {kind} {sigma}")
            probes.append(serial)
    details["alphas"] = [float(a) for a in saab.alphas]
    return Outcome(metrics, checks, harness.digest(*run.values[0], *probes), details)


# -- serve-fft ----------------------------------------------------------------------

SERVE_BENCH = "fft"
OPEN_RATE = 50.0
"""Open-loop arrivals per second, a quarter of the closed-loop capacity
(about 200 requests/s with the server on one CPU of a shared 2-vCPU
host).  At 100/s, runs on a slow host overloaded and their median
latency tripled."""
CLOSED_SHARE = 0.3
"""Share of the measured time spent in the closed-loop phase."""
BURST = 64
"""Requests per closed-loop burst; ``wall_s`` is the median burst time."""
WARMUP = 16
"""Requests sent to a freshly started server before it counts as set up."""
POOL = 8192
MAX_SAMPLES = 8


def _cpus() -> Tuple[set, set]:
    """CPUs of the server and of the load client.

    The server gets the first CPU to itself and the client the rest, so
    the load generator does not compete with the system it measures.
    Left to the scheduler, closed-loop capacity on a 2-vCPU host varied
    from 150 to 280 requests/s between runs, within a run far less.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return {cpus[0]}, set(cpus[1:]) or {cpus[0]}


class Server:
    """A serving process on a free local port, on the server CPU."""

    def __init__(self, artifact: "os.PathLike[str]", cpus: set,
                 traced_spans: Optional[str] = None) -> None:
        self.artifact = str(artifact)
        self.cpus = cpus
        self.spans_path = traced_spans
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.log = None

    def start(self) -> "Server":
        for _attempt in range(3):
            with socket.socket() as sock:
                sock.bind(("127.0.0.1", 0))
                self.port = sock.getsockname()[1]
            if self.spans_path is None:
                argv = [sys.executable, "-m", "repro", "serve", "--artifact", self.artifact,
                        "--port", str(self.port)]
            else:
                argv = [sys.executable, str(ROOT / "perfbench" / "serve_launcher.py"),
                        "--artifact", self.artifact, "--port", str(self.port),
                        "--spans", self.spans_path]
            self.log = open(OUT_DIR / "server.log", "ab")
            self.proc = subprocess.Popen(argv, cwd=ROOT, stdout=self.log, stderr=self.log)
            # Threads the server starts later inherit this.
            os.sched_setaffinity(self.proc.pid, self.cpus)
            if self._wait_healthy():
                return self
            self.stop()
        raise RuntimeError(f"serving process did not start; see {OUT_DIR / 'server.log'}")

    def _wait_healthy(self, timeout: float = 60.0) -> bool:
        import http.client

        deadline = clock() + timeout
        while clock() < deadline and self.proc.poll() is None:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=2)
            try:
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    return True
            except OSError:
                time.sleep(0.02)
            finally:
                connection.close()
        return False

    def peak_rss_mb(self) -> float:
        return harness.vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc = None
        if self.log is not None:
            self.log.close()
            self.log = None


def _requests(x: np.ndarray, rng: np.random.Generator, count: int) -> List[np.ndarray]:
    """``count`` requests of 1..MAX_SAMPLES test samples each."""
    sizes = rng.integers(1, MAX_SAMPLES + 1, size=count)
    return [x[rng.integers(0, len(x), size=int(n))] for n in sizes]


def _split(x: np.ndarray, rng: np.random.Generator) -> List[np.ndarray]:
    """The whole test split, in order, cut into requests of 1..MAX_SAMPLES."""
    out, start = [], 0
    while start < len(x):
        n = int(rng.integers(1, MAX_SAMPLES + 1))
        out.append(x[start:start + n])
        start += n
    return out


def _closed_rate(bursts: Sequence[loadclient.Phase], samples: bool = False) -> float:
    """Requests (or samples) answered per second over closed-loop bursts."""
    done = [r.outcome for p in bursts for r in p.records if r.outcome.ok]
    count = sum(len(o.outputs) for o in done) if samples else len(done)
    return count / math.fsum(p.elapsed for p in bursts)


@dataclass
class ServePhases:
    bursts: List[loadclient.Phase]
    open: loadclient.Phase
    check: loadclient.Phase
    untraced_bursts: List[loadclient.Phase]

    def records(self) -> List[loadclient.Record]:
        """Every request sent to the server under test."""
        return [r for p in (*self.bursts, self.open, self.check) for r in p.records]


def _closed(targets: Sequence[loadclient.HttpTarget], connections: int,
            seconds: float) -> List[List[loadclient.Phase]]:
    """Closed-loop bursts for ``seconds``, taking the targets in turn."""
    bursts: List[List[loadclient.Phase]] = [[] for _ in targets]
    start = clock()
    done = 0
    while done < len(targets) or clock() - start < seconds:
        phase = loadclient.closed_loop(targets[done % len(targets)], BURST, connections,
                                       first=done * BURST)
        bursts[done % len(targets)].append(phase)
        done += 1
    return bursts


def _phases(server: Server, requests: List[np.ndarray], split: List[np.ndarray],
            seconds: float, untraced: Optional[Server] = None) -> ServePhases:
    """Closed loop, open loop, then the test split, against ``server``.

    With an ``untraced`` server, closed-loop bursts alternate between the
    two for twice as long, so drift in host speed hits both alike.
    """
    connections = min(2, harness.nproc())
    targets = [loadclient.HttpTarget("127.0.0.1", s.port, requests)
               for s in (server, untraced) if s is not None]
    bursts = _closed(targets, connections, len(targets) * CLOSED_SHARE * seconds)
    opened = loadclient.open_loop(targets[0], OPEN_RATE, (1 - CLOSED_SHARE) * seconds,
                                  connections, first=sum(map(len, bursts)) * BURST)
    check = loadclient.closed_loop(loadclient.HttpTarget("127.0.0.1", server.port, split),
                                   len(split), 1)
    return ServePhases(bursts[0], opened, check, bursts[1] if untraced else [])


def _serve_setup(artifact, cpus: set, spans: Optional[str]):
    """Train the fft MEI, prune its LSBs as Table 1 does (Algorithm 2
    Line 22), save it and start a warmed-up server on ``cpus``."""
    from repro.core import pruning
    from repro.core.runner import QUICK_SCALE
    from repro.serve import save_artifact, train_serve_system

    mei, data = train_serve_system(SERVE_BENCH, QUICK_SCALE, seed=MODEL_SEED)
    bench = _bench(SERVE_BENCH)

    def error(candidate) -> float:
        return bench.error_normalized(candidate.predict(data.x_test), data.y_test)

    system = pruning.prune_lsbs(mei, error, max_error=error(mei) * 1.05,
                                mse=mei.mse(data.x_test, data.y_test)).mei
    save_artifact(system, artifact, benchmark=SERVE_BENCH)
    server = Server(artifact, cpus, spans).start()
    warm = loadclient.HttpTarget("127.0.0.1", server.port, [data.x_test[:1]])
    loadclient.closed_loop(warm, WARMUP, 1)
    return system, data, server


def _verify(checks: Checks, artifact, records: Sequence[loadclient.Record],
            inputs: Callable[[loadclient.Record], np.ndarray]) -> None:
    """Every response must equal the in-process engine's prediction."""
    from repro.serve import load_artifact
    from repro.serve.batcher import InferenceEngine

    engine = InferenceEngine(load_artifact(artifact).system)
    bad = [r for r in records if not (r.outcome.ok and np.array_equal(
        r.outcome.outputs, engine.predict(inputs(r))))]
    what = "requests failed or differed from the in-process engine"
    if bad:
        first = bad[0].outcome
        what += f" (first: request {bad[0].index}, HTTP {first.status} {first.error!r})"
    checks.count(len(records), len(bad), what)


def serve(seed: int, seconds: float, trace: bool) -> Outcome:
    server_cpus, client_cpus = _cpus()
    os.sched_setaffinity(0, client_cpus)
    checks = Checks()
    artifact = OUT_DIR / f"serve-{SERVE_BENCH}-{MODEL_SEED}.npz"
    spans_path = str(OUT_DIR / f"server-spans-{seed}.json")
    details: Dict[str, object] = {
        "benchmark": SERVE_BENCH, "model_seed": MODEL_SEED, "open_rate": OPEN_RATE,
        "burst": BURST, "connections": min(2, harness.nproc()), "closed_share": CLOSED_SHARE,
        "server_cpus": sorted(server_cpus), "client_cpus": sorted(client_cpus),
    }
    rng = np.random.default_rng(seed)
    server = None
    try:
        if trace:
            with Tracing() as traced:
                system, data, server = _serve_setup(artifact, server_cpus, spans_path)
                requests, split = _requests(data.x_test, rng, POOL), _split(data.x_test, rng)
                untraced = Server(artifact, server_cpus).start()
                try:
                    run = _phases(server, requests, split, seconds, untraced)
                finally:
                    untraced.stop()
                server.stop()
            with open(spans_path) as fh:
                report = json.load(fh)
            overhead = _closed_rate(run.untraced_bursts) / _closed_rate(run.bursts) - 1.0
            records = run.records()
            client = [tracing.Span(layers.CLIENT_SPAN, r.sent, r.done, request=f"c{r.index}")
                      for r in records]
            spans = tracing.merge(traced.tracer.spans,
                                  [tracing.Span(**s) for s in report["spans"]], client)
            failed = sum(1 for r in records if not r.outcome.ok)
            metrics = _layer_metrics("serve-fft", seed, details, spans, overhead,
                                     report["mapping_cache_hit_ratio"], report["counters"],
                                     failed)
        else:
            setup = []
            for _ in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                t0 = clock()
                system, data, server = _serve_setup(artifact, server_cpus, None)
                setup.append(clock() - t0)
            requests, split = _requests(data.x_test, rng, POOL), _split(data.x_test, rng)
            run = _phases(server, requests, split, seconds)
            peak = server.peak_rss_mb()
            server.stop()
            latencies = [r.latency for r in run.open.records]
            bench_topology = _bench(SERVE_BENCH).spec.topology
            metrics = {
                "setup_s": median(setup),
                "wall_s": median([p.elapsed for p in run.bursts]),
                "samples_per_s": _closed_rate(run.bursts, samples=True),
                "requests_per_s": _closed_rate(run.bursts),
                **_latencies(latencies, details),
                "peak_rss_mb": peak,
                **_savings(bench_topology, system.topology()),
            }
            late = [r.late for r in run.open.records]
            details.update({
                "setup_seconds": setup,
                "burst_seconds": [p.elapsed for p in run.bursts],
                "open_requests": len(run.open.records),
                "open_late_p99_ms": 1000.0 * tail(late)["value"],
                "open_late_max_ms": 1000.0 * max(late),
            })
    finally:
        if server is not None:
            server.stop()
    closed = [r for p in (*run.bursts, *run.untraced_bursts) for r in p.records]
    _verify(checks, artifact, closed + run.open.records, lambda r: requests[r.index % POOL])
    _verify(checks, artifact, run.check.records, lambda r: split[r.index])
    answered = [r for r in run.check.records if r.outcome.ok]
    if not answered:
        raise RuntimeError("the server answered none of the test-split requests")
    bounds = np.cumsum([0] + [len(x) for x in split])
    targets = np.concatenate([data.y_test[bounds[r.index]:bounds[r.index + 1]] for r in answered])
    outputs = np.concatenate([r.outcome.outputs for r in answered])
    error = _bench(SERVE_BENCH).error_normalized(outputs, targets)
    if not trace:
        metrics["app_error"] = error
    details["app_error"] = error
    return Outcome(metrics, checks, harness.digest(outputs), details)


def _bench(name: str):
    from repro.workloads.registry import make_benchmark

    return make_benchmark(name)


WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "fig5-mc-jpeg": fig5_mc,
    "serve-fft": serve,
}
