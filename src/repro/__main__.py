"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro fig2                  # Fig. 2 cost breakdown
    python -m repro fig3                  # Fig. 3 hidden-size sweep
    python -m repro table1 [--bench fft]  # Table 1 (all or one row)
    python -m repro fig4                  # Fig. 4 method comparison
    python -m repro fig5                  # Fig. 5 robustness sweeps
    python -m repro bitlength             # MEI word-length extension
    python -m repro faults --scale fast   # stuck-at fault campaign
    python -m repro all                   # everything, in paper order

    python -m repro bench                 # bench suite -> runs/history.jsonl
    python -m repro errorbudget [--bench fft] [--json]    # stage attribution
    python -m repro compare [--baseline SHA] [--strict]   # regression gate
    python -m repro report                # trajectory report (md + HTML)
    python -m repro summary               # collate archived bench tables
    python -m repro lint [--json]         # repro-lint invariant checker
    python -m repro serve [--bench fft]   # inference service (HTTP)
    python -m repro --version

Serving: ``serve`` trains (or loads, via ``--artifact``) a system,
wraps it in the micro-batched request path and answers value-domain
predictions over HTTP (``POST /v1/predict``), with the ``serve_*``
metric families on ``GET /metrics``.  ``--save-only`` just builds the
load-once model artifact; ``--smoke`` starts an ephemeral server,
drives a quick loadgen through it, differential-checks one response
against the in-process prediction and exits non-zero on any failure
(the CI serve-smoke step).  See ``docs/serving.md``.

Add ``--full`` for the paper-scale budgets (10k train samples, 400
epochs, 100 noise trials); the default quick budgets finish in
minutes.

Observability: tables go to **stdout**, diagnostics to **stderr**, so
``python -m repro table1 > results.txt`` captures clean tables.  Use
``--log-level debug`` (or ``REPRO_LOG=debug``) for per-epoch progress,
``--trace`` (or ``REPRO_TRACE=1``) to record a span tree, and
``--run-dir DIR`` (or ``REPRO_RUN_DIR``) to choose where run manifests
land (default ``runs/``).  A manifest is written per experiment
whenever tracing is enabled or ``--run-dir`` is given; see
``docs/observability.md``.

Benchmark trajectory: ``bench`` appends a provenance-stamped metric
entry to the history store (``runs/history.jsonl`` or ``--history`` /
``REPRO_HISTORY``); ``compare`` gates the latest entry against a
baseline (``--baseline SHA`` resolves through history, falling back to
the committed ``benchmarks/baseline.json``) and exits non-zero on
regression; ``report`` renders the trajectory as markdown (stdout) and
a self-contained HTML page.  See ``docs/benchmarking.md``.

Error budget: ``errorbudget`` runs the counterfactual stage-attribution
harness (which pipeline stage — codec, mapping, PV, SF, IR drop,
comparator, truncation — costs how much accuracy), publishes
``error_budget_*`` metric families, appends a ``kind="errorbudget"``
history entry, and exports JSON/HTML; gate drift with ``compare --kind
errorbudget``.  See the "Error budget" section of
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from repro import __version__
from repro.core.runner import FULL_SCALE, QUICK_SCALE
from repro.experiments.bitlength import run_bitlength
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.table1 import run_benchmark_row, run_table1
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import runinfo
from repro.obs import trace as obs_trace
from repro.obs.trace import span
from repro.workloads.registry import BENCHMARK_NAMES

_log = obs_log.get_logger("cli")


def _table1(args, scale) -> str:
    if args.bench:
        with span("table1", benchmarks=[args.bench], seed=args.seed):
            row = run_benchmark_row(args.bench, scale, seed=args.seed)
        return (
            f"Table 1 row — {row.name}\n"
            f"pruned MEI topology: {row.pruned_topology}\n"
            f"err digital/adda/mei: {row.error_digital:.4f} / "
            f"{row.error_adda:.4f} / {row.error_mei:.4f}\n"
            f"area saved (measured): {row.area_saved_measured:.4f}\n"
            f"power saved (measured): {row.power_saved_measured:.4f}"
        )
    return run_table1(scale=scale, seed=args.seed).render()


def _summary() -> str:
    from repro.experiments.summary import collect_reports

    return collect_reports()


def _run_bench(args, scale) -> int:
    from repro.experiments.bench import render_bench_entry, run_bench, write_baseline

    names = [args.bench] if args.bench else list(BENCHMARK_NAMES)
    entry, history_file = run_bench(
        names=names, scale=scale, seed=args.seed, history_path=args.history
    )
    print(render_bench_entry(entry))
    if history_file is not None:
        _log.info(
            "history updated",
            extra={"fields": {"path": os.fspath(history_file)}},
        )
    if args.write_baseline:
        state = runinfo.checkout_state(entry)
        if state is not None and not args.allow_dirty:
            print(
                f"refusing --write-baseline: git checkout is {state}, so the "
                f"baseline would not be attributable to a commit; commit your "
                f"changes or pass --allow-dirty",
                file=sys.stderr,
            )
            return 2
        baseline = write_baseline(entry)
        _log.info(
            "baseline snapshot written",
            extra={"fields": {"path": os.fspath(baseline)}},
        )
    return 0


def _run_errorbudget(args, scale) -> int:
    """Stage-attribution harness: counterfactual error budget per bench.

    Trials resolution: ``--trials`` > ``REPRO_ERRORBUDGET_TRIALS`` >
    the scale's noise-trial budget.  ``--check`` validates the
    in-process OpenMetrics exposition carries the published
    ``error_budget_*`` families (CI smoke).
    """
    from repro.analysis.errorbudget import ErrorBudgetConfig
    from repro.config import knobs
    from repro.experiments.bench import write_baseline
    from repro.experiments.errorbudget import (
        ERRORBUDGET_BASELINE_FILE,
        baseline_guard,
        run_errorbudget,
    )

    trials = args.trials
    if trials is None:
        trials = knobs.get_int("REPRO_ERRORBUDGET_TRIALS")
    if trials is None:
        trials = scale.noise_trials
    config = ErrorBudgetConfig(
        sigma_pv=args.sigma_pv,
        sigma_sf=args.sigma_sf,
        comparator_offset=args.comparator_offset,
        wire_resistance=args.wire_resistance,
        trials=trials,
        seed=args.seed,
    )
    names = [args.bench] if args.bench else list(BENCHMARK_NAMES)
    suite, entry, history_file = run_errorbudget(
        names=names,
        scale=scale,
        seed=args.seed,
        config=config,
        ensemble=args.ensemble,
        workers=args.workers,
        history_path=args.history,
    )
    if args.json:
        print(json.dumps(suite.payload(), indent=2, default=str))
    else:
        print(suite.render())
    if history_file is not None:
        _log.info(
            "history updated",
            extra={"fields": {"path": os.fspath(history_file)}},
        )
    if args.write_baseline:
        refusal = baseline_guard(entry, allow_dirty=args.allow_dirty)
        if refusal is not None:
            print(refusal, file=sys.stderr)
            return 2
        baseline = write_baseline(entry, ERRORBUDGET_BASELINE_FILE)
        _log.info(
            "errorbudget baseline written",
            extra={"fields": {"path": os.fspath(baseline)}},
        )
    if args.check:
        from repro.obs import openmetrics

        if not suite.results:
            print(
                "errorbudget --check: no benchmark produced a result",
                file=sys.stderr,
            )
            return 2
        exposition = openmetrics.render()
        openmetrics.validate(exposition)
        if "error_budget_" not in exposition:
            print(
                "errorbudget --check: OpenMetrics exposition is missing the "
                "error_budget_* families",
                file=sys.stderr,
            )
            return 2
    return 0


def _run_compare(args) -> int:
    from repro.obs.compare import DEFAULT_BASELINE_FILE, compare_history

    # --kind errorbudget swaps in the kind's own committed snapshot
    # unless the user pointed at a specific file; the bench baseline
    # holds disjoint metric names and would compare as all-new.
    baseline_file = args.baseline_file
    if args.kind == "errorbudget" and baseline_file == DEFAULT_BASELINE_FILE:
        from repro.experiments.errorbudget import ERRORBUDGET_BASELINE_FILE

        baseline_file = ERRORBUDGET_BASELINE_FILE
    result = compare_history(
        history_path=args.history,
        baseline_sha=args.baseline,
        baseline_file=baseline_file,
        kind=args.kind,
    )
    if result is None:
        message = (
            "nothing to compare: need at least one history entry "
            "(run `python -m repro bench`) and a resolvable baseline"
        )
        print(message)
        return 2 if args.strict else 0
    if args.json:
        print(json.dumps(result.to_dict(strict=args.strict), indent=2))
    else:
        print(result.render(strict=args.strict))
    return result.exit_code(strict=args.strict)


def _run_report(args) -> int:
    from repro.obs.history import load_history
    from repro.obs.report import render_markdown, write_report

    history = load_history(args.history)
    out_dir = args.out or "runs"
    md_path, html_path = write_report(history, out_dir=out_dir)
    print(render_markdown(history))
    _log.info(
        "trajectory report written",
        extra={"fields": {"markdown": os.fspath(md_path),
                          "html": os.fspath(html_path)}},
    )
    return 0


def _run_faults(args) -> int:
    """The fault-injection campaign: always manifest-backed.

    Unlike the figure runners, ``faults`` writes a run manifest
    unconditionally — the manifest carries the defect-map seeds and
    the mitigation comparison table, which *are* the campaign's
    reproducibility contract (``docs/robustness.md``).
    """
    from repro.experiments.fig_faults import campaign_scale, run_fig_faults
    from repro.parallel.executor import RetryPolicy

    scale = campaign_scale(args.scale)
    chaos = not args.no_chaos
    workers = args.workers if args.workers is not None else 2
    benchmarks = (args.bench,) if args.bench else None
    with span("faults", scale=scale.name, seed=args.seed, chaos=chaos):
        result = run_fig_faults(
            scale=scale,
            seed=args.seed,
            benchmarks=benchmarks,
            workers=workers,
            policy=RetryPolicy.from_env(),
            chaos=chaos,
        )
    print(result.render())
    path = runinfo.write_manifest(
        "faults",
        run_dir=args.run_dir,
        seed=args.seed,
        scale=scale,
        argv=sys.argv[1:],
        extra={"campaign": result.to_dict()},
        spans=obs_trace.get_records(),
        metrics_snapshot=obs_metrics.snapshot(),
    )
    _log.info(
        "wrote run manifest",
        extra={"fields": {"experiment": "faults", "path": os.fspath(path)}},
    )
    return 0


def _run_serve(args, scale) -> int:
    """The inference service: artifact -> micro-batched HTTP request path.

    Always materializes through the on-disk artifact (train -> save ->
    load) so every serving process exercises the exact path a
    production deploy would; ``--smoke`` additionally differential-
    checks a served response against the in-process prediction
    (``docs/serving.md``).
    """
    import pathlib

    import numpy as np

    from repro.config import knobs
    from repro.serve import load_artifact, save_artifact, train_serve_system

    artifact = args.artifact
    if artifact is None or not pathlib.Path(artifact).exists():
        name = args.bench or "fft"
        ensemble = args.ensemble if args.ensemble and args.ensemble > 1 else 0
        _log.info(
            "training serve system",
            extra={"fields": {"benchmark": name, "scale": scale.name,
                              "seed": args.seed, "ensemble": ensemble}},
        )
        with span("serve-train", benchmark=name, seed=args.seed):
            system, _ = train_serve_system(
                name, scale=scale, seed=args.seed, ensemble=ensemble
            )
        if artifact is None:
            run_dir = args.run_dir or knobs.get_path("REPRO_RUN_DIR") or "runs"
            pathlib.Path(run_dir).mkdir(parents=True, exist_ok=True)
            artifact = str(pathlib.Path(run_dir) / f"serve-{name}.npz")
        save_artifact(system, artifact, benchmark=name)
        print(f"model artifact written: {artifact}", file=sys.stderr)
    model = load_artifact(artifact)
    if args.save_only:
        return 0

    if args.smoke:
        import urllib.request

        from repro.obs import openmetrics
        from repro.serve.loadgen import run_loadgen
        from repro.serve.service import BackgroundServer

        failures = []
        with BackgroundServer(model, port=0) as server:
            with urllib.request.urlopen(server.url + "/healthz", timeout=10) as fh:
                health = json.loads(fh.read())
            if health.get("status") != "ok":
                failures.append(f"healthz: {health}")
            # Differential check: one served response must equal the
            # in-process prediction bit for bit.
            engine = server.service.engine
            rng = np.random.default_rng(args.seed)
            probe = rng.uniform(0.0, 1.0, size=(4, engine.in_dim))
            body = json.dumps({"inputs": probe.tolist()}).encode()
            request = urllib.request.Request(
                server.url + "/v1/predict", data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as fh:
                served = np.asarray(json.loads(fh.read())["outputs"])
            direct = model.system.predict(probe)
            if not np.array_equal(served, direct):
                failures.append("differential check: served != in-process prediction")
            result = run_loadgen(
                server.url, engine.in_dim, requests=40, concurrency=4,
                samples_per_request=2, seed=args.seed,
            )
            if result.ok != result.requests:
                failures.append(
                    f"loadgen: {result.ok}/{result.requests} ok "
                    f"({result.shed} shed, {result.errors} errors)"
                )
            with urllib.request.urlopen(server.url + "/metrics", timeout=10) as fh:
                exposition = fh.read().decode()
            openmetrics.validate(exposition)
            for family in ("serve_requests", "serve_request_latency_seconds",
                           "serve_queue_depth", "serve_batch_size"):
                if family not in exposition:
                    failures.append(f"/metrics missing the {family} family")
        summary = {
            "artifact": str(model.path),
            "system": model.kind,
            "interface": model.interface,
            "loadgen": result.as_dict(),
            "failures": failures,
        }
        print(json.dumps(summary, indent=2))
        if failures:
            for failure in failures:
                print(f"serve --smoke: {failure}", file=sys.stderr)
            return 2
        return 0

    from repro.serve.service import run_service

    port = args.port
    print(
        f"serving {model.kind} model ({model.meta.get('benchmark')}) — "
        f"POST /v1/predict, GET /metrics (Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        run_service(model, port=port)
    except KeyboardInterrupt:
        pass
    return 0


def _run_lint(args) -> int:
    from repro.lintrules import engine
    from repro.lintrules.program import ALL_PROGRAM_RULES
    from repro.lintrules.rules import ALL_RULES, rule_catalogue

    if args.list_rules:
        print(rule_catalogue(tuple(ALL_RULES) + tuple(ALL_PROGRAM_RULES)))
        return 0
    targets = args.paths if args.paths else [engine.default_target()]
    if args.graph:
        import ast as _ast

        from repro.lintrules.graph import REPRO_CONTRACT, build_graph

        parsed = []
        for path in engine.iter_python_files(targets):
            try:
                parsed.append((path, _ast.parse(path.read_text(encoding="utf-8"))))
            except SyntaxError:
                continue
        graph = build_graph(parsed)
        if args.graph == "dot":
            print(graph.to_dot(REPRO_CONTRACT))
        else:
            print(graph.to_svg(REPRO_CONTRACT))
        return 0
    findings = engine.run_paths(targets)
    files = list(engine.iter_python_files(targets))
    if args.json:
        print(engine.render_json(findings, checked=len(files)))
    else:
        print(engine.render_human(findings, checked=len(files)))
    return 1 if findings else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the tables/figures of 'Merging the Interface' (DAC 2015).",
    )
    parser.add_argument(
        "experiment",
        choices=["fig2", "fig3", "table1", "fig4", "fig5", "bitlength",
                 "faults", "bench", "errorbudget", "compare", "report",
                 "summary", "lint", "serve", "all"],
        help="artifact to regenerate, or a trajectory command: 'faults' runs the "
             "stuck-at fault-injection campaign (manifest always written), 'bench' "
             "runs the benchmark suite and appends to the run history, "
             "'errorbudget' attributes the real-vs-ideal accuracy gap to pipeline "
             "stages via counterfactual idealization, 'compare' "
             "gates the latest entry against a baseline, 'report' renders the "
             "trajectory (markdown + HTML), 'summary' collates archived bench "
             "tables, 'lint' runs the repro-lint invariant checker over the package, "
             "'serve' runs the micro-batched inference service over a model "
             "artifact",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale budgets instead of quick ones")
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument("--bench", choices=BENCHMARK_NAMES, default=None,
                        help="restrict table1/bench/errorbudget to one benchmark")
    parser.add_argument("--log-level", default=None,
                        choices=["debug", "info", "warning", "error"],
                        help="diagnostic verbosity on stderr (default: REPRO_LOG or info)")
    parser.add_argument("--trace", action="store_true",
                        help="record a span tree and write a run manifest "
                             "(same as REPRO_TRACE=1)")
    parser.add_argument("--run-dir", default=None, metavar="DIR",
                        help="directory for run manifests (default: REPRO_RUN_DIR or "
                             "'runs/'); implies writing a manifest")
    parser.add_argument("--history", default=None, metavar="PATH",
                        help="run-history store (default: REPRO_HISTORY or "
                             "'runs/history.jsonl')")
    parser.add_argument("--baseline", default=None, metavar="SHA",
                        help="compare: baseline commit (prefix ok); resolved through "
                             "history, falling back to benchmarks/baseline.json")
    parser.add_argument("--baseline-file", default="benchmarks/baseline.json",
                        metavar="PATH",
                        help="compare: committed baseline snapshot fallback")
    parser.add_argument("--strict", action="store_true",
                        help="compare: also fail when a baseline metric is "
                             "missing from the current run")
    parser.add_argument("--kind", default=None, metavar="KIND",
                        help="compare: restrict both sides to history entries of "
                             "one kind (e.g. 'errorbudget', which also swaps in "
                             "benchmarks/errorbudget_baseline.json as the snapshot "
                             "fallback)")
    parser.add_argument("--json", action="store_true",
                        help="compare/lint/errorbudget: print the machine-readable "
                             "report as JSON")
    parser.add_argument("--paths", nargs="*", default=None, metavar="PATH",
                        help="lint: files/directories to check (default: the "
                             "installed repro package source)")
    parser.add_argument("--list-rules", action="store_true",
                        help="lint: print the RPR rule catalogue and exit")
    parser.add_argument("--graph", choices=["dot", "svg"], default=None,
                        help="lint: print the package import graph (layer "
                             "level, lazy edges dashed) instead of linting")
    parser.add_argument("--write-baseline", action="store_true",
                        help="bench/errorbudget: also write the entry to the kind's "
                             "committed baseline snapshot (refused on a "
                             "dirty/unknown git checkout)")
    parser.add_argument("--allow-dirty", action="store_true",
                        help="bench/errorbudget: let --write-baseline proceed "
                             "despite a dirty/unknown git checkout")
    parser.add_argument("--trials", type=int, default=None, metavar="N",
                        help="errorbudget: Monte-Carlo trials per variant "
                             "(default: REPRO_ERRORBUDGET_TRIALS or the scale's "
                             "noise-trial budget)")
    parser.add_argument("--ensemble", type=int, default=1, metavar="K",
                        help="errorbudget: SAAB ensemble size; 1 = single MEI "
                             "(default 1)")
    parser.add_argument("--sigma-pv", type=float, default=0.1, metavar="S",
                        help="errorbudget: lognormal process-variation sigma of "
                             "the 'real' system (default 0.1)")
    parser.add_argument("--sigma-sf", type=float, default=0.05, metavar="S",
                        help="errorbudget: signal-fluctuation sigma of the 'real' "
                             "system (default 0.05)")
    parser.add_argument("--comparator-offset", type=float, default=0.05,
                        metavar="S",
                        help="errorbudget: comparator offset sigma of the 'real' "
                             "system (default 0.05)")
    parser.add_argument("--wire-resistance", type=float, default=2.0,
                        metavar="OHMS",
                        help="errorbudget: per-segment wire resistance of the "
                             "'real' system (default 2.0, the 90nm node)")
    parser.add_argument("--scale", default="fast", choices=["fast", "quick", "full"],
                        help="faults: campaign budget (default fast; --full is "
                             "ignored by 'faults' in favour of this)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="faults/errorbudget: executor worker count (faults "
                             "defaults to 2 so the chaos drill has a process pool "
                             "to crash; errorbudget defaults to REPRO_WORKERS)")
    parser.add_argument("--no-chaos", action="store_true",
                        help="faults: skip the forced worker-crash drill")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="report: output directory for report.md/report.html "
                             "(default 'runs/')")
    parser.add_argument("--check", action="store_true",
                        help="errorbudget: exit non-zero unless the OpenMetrics "
                             "exposition carries the error_budget_* families "
                             "(CI smoke test)")
    parser.add_argument("--port", type=int, default=None, metavar="N",
                        help="serve: listen port (default: REPRO_SERVE_PORT or "
                             "9600; 0 = ephemeral)")
    parser.add_argument("--artifact", default=None, metavar="PATH",
                        help="serve: model artifact to load; when the file does "
                             "not exist, a system is trained (--bench/--seed/"
                             "--ensemble) and the artifact written there first")
    parser.add_argument("--save-only", action="store_true",
                        help="serve: build/write the model artifact and exit "
                             "without starting the server")
    parser.add_argument("--smoke", action="store_true",
                        help="serve: self-test — serve on an ephemeral port, run "
                             "a quick loadgen, validate /metrics and the "
                             "differential check, then exit (non-zero on failure)")
    args = parser.parse_args(argv)
    scale = FULL_SCALE if args.full else QUICK_SCALE

    # CLI runs default to info-level progress on stderr; --log-level
    # and REPRO_LOG override.
    obs_log.configure(
        level=args.log_level if args.log_level else obs_log.level_from_env(logging.INFO),
        force=True,
    )
    if args.trace:
        obs_trace.enable(True)

    if args.experiment == "bench":
        return _run_bench(args, scale)
    if args.experiment == "errorbudget":
        return _run_errorbudget(args, scale)
    if args.experiment == "compare":
        return _run_compare(args)
    if args.experiment == "report":
        return _run_report(args)
    if args.experiment == "summary":
        print(_summary())
        return 0
    if args.experiment == "lint":
        return _run_lint(args)
    if args.experiment == "faults":
        return _run_faults(args)
    if args.experiment == "serve":
        return _run_serve(args, scale)

    write_manifests = obs_trace.enabled() or args.run_dir is not None

    runners = {
        "fig2": lambda: run_fig2().render(),
        "fig3": lambda: run_fig3(scale=scale, seed=args.seed).render(),
        "table1": lambda: _table1(args, scale),
        "fig4": lambda: run_fig4(scale=scale, seed=args.seed).render(),
        "fig5": lambda: run_fig5(scale=scale, seed=args.seed).render(),
        "bitlength": lambda: run_bitlength(scale=scale, seed=args.seed).render(),
    }
    names = list(runners) if args.experiment == "all" else [args.experiment]
    for name in names:
        _log.info(
            "running experiment",
            extra={"fields": {"experiment": name, "scale": scale.name,
                              "seed": args.seed, "trace": obs_trace.enabled()}},
        )
        obs_trace.clear()
        obs_metrics.clear()
        print(runners[name]())
        print()
        if write_manifests:
            path = runinfo.write_manifest(
                name,
                run_dir=args.run_dir,
                seed=args.seed,
                scale=scale,
                argv=list(argv) if argv is not None else sys.argv[1:],
                spans=obs_trace.get_records(),
                metrics_snapshot=obs_metrics.snapshot(),
            )
            _log.info(
                "wrote run manifest",
                extra={"fields": {"experiment": name, "path": os.fspath(path)}},
            )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # `python -m repro ... | head` closes stdout early; swallow the
        # resulting write failure instead of dumping a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
