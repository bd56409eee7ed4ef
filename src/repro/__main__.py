"""Command-line entry point: regenerate the paper's tables and figures.

``python -m repro --help`` lists the commands, and ``python -m repro
COMMAND --help`` lists the flags that command reads; any other flag is
an argparse error (exit 2).  ``fig2``, ``fig3``, ``table1`` (``--bench
fft`` for one row), ``fig4``, ``fig5`` and ``bitlength`` print one of
the paper's tables or figures, and ``all`` prints them all in paper
order.  ``faults`` runs the stuck-at fault campaign, ``summary``
collates archived bench tables and ``lint`` runs the repro-lint
invariant checker.

Budgets: every command that trains or samples takes ``--scale
quick|full``.  ``full`` is the paper's setup (10k train samples, 400
epochs, 100 noise trials); ``quick`` finishes in minutes.  The default
is ``full`` when ``REPRO_FULL`` is truthy and ``quick`` otherwise.
``faults`` takes ``--scale fast|quick|full`` and defaults to ``fast``.

Serving: ``serve`` trains (or loads, via ``--artifact``) a system,
wraps it in the micro-batched request path and answers value-domain
predictions over HTTP (``POST /v1/predict``), with the ``serve_*``
metric families on ``GET /metrics``.  ``--save-only`` just builds the
load-once model artifact; ``--smoke`` starts an ephemeral server,
differential-checks one response against the in-process prediction,
sends 40 concurrent requests that must all answer, validates
``/metrics`` and exits non-zero on any failure (the CI serve-smoke
step).  See ``docs/serving.md``.

Observability: tables go to **stdout**, diagnostics to **stderr**, so
``python -m repro table1 > results.txt`` captures clean tables.  Use
``--log-level debug`` (or ``REPRO_LOG=debug``) for per-epoch progress,
and ``--run-dir DIR`` to write a run manifest per experiment into
``DIR``.  ``faults`` always writes one (default directory
``REPRO_RUN_DIR`` or ``runs/``); see ``docs/observability.md``.

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
import importlib
import json
import logging
import os
import sys

from repro import __version__
from repro.core.runner import FULL_SCALE, QUICK_SCALE, default_scale
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import runinfo
from repro.workloads.registry import BENCHMARK_NAMES

_log = obs_log.get_logger("cli")

_SCALES = {scale.name: scale for scale in (QUICK_SCALE, FULL_SCALE)}
"""The ``--scale`` budgets of every command but ``faults``."""

_FIGURES = ("fig2", "fig3", "table1", "fig4", "fig5", "bitlength")
"""The paper's tables and figures, in paper order (``all`` runs each)."""


def _render(name, scale, seed) -> str:
    """Run ``repro.experiments.<name>.run_<name>``, imported here so ``serve`` never loads it."""
    run = getattr(importlib.import_module(f"repro.experiments.{name}"), f"run_{name}")
    return (run() if name == "fig2" else run(scale=scale, seed=seed)).render()


def _manifest(args, name, **fields) -> None:
    """Write ``name``'s run manifest (``--run-dir``, else ``REPRO_RUN_DIR`` or ``runs/``)."""
    path = runinfo.write_manifest(name, run_dir=args.run_dir, argv=args.argv, **fields)
    _log.info("wrote run manifest",
              extra={"fields": {"experiment": name, "path": os.fspath(path)}})


def _print_tables(args, names, scale=None, seed=None, render=None) -> int:
    """Print each table; with ``--run-dir``, write one manifest per table."""
    for name in names:
        _log.info(
            "running experiment",
            extra={"fields": {"experiment": name,
                              "scale": scale.name if scale else None, "seed": seed}},
        )
        obs_metrics.clear()
        print((render or _render)(name, scale, seed))
        print()
        if args.run_dir is not None:
            _manifest(args, name, seed=seed, scale=scale)
    return 0


def _run_fig2(args) -> int:
    return _print_tables(args, ["fig2"])


def _run_figure(args) -> int:
    names = _FIGURES if args.command == "all" else [args.command]
    return _print_tables(args, names, _SCALES[args.scale], args.seed)


def _run_table1(args) -> int:
    def one_row(name, scale, seed) -> str:
        from repro.experiments.table1 import run_benchmark_row

        row = run_benchmark_row(args.bench, scale, seed=seed)
        return (
            f"Table 1 row — {row.name}\n"
            f"pruned MEI topology: {row.pruned_topology}\n"
            f"err digital/adda/mei: {row.error_digital:.4f} / "
            f"{row.error_adda:.4f} / {row.error_mei:.4f}\n"
            f"area saved (measured): {row.area_saved_measured:.4f}\n"
            f"power saved (measured): {row.power_saved_measured:.4f}"
        )

    return _print_tables(args, ["table1"], _SCALES[args.scale], args.seed,
                         render=one_row if args.bench else None)


def _run_summary(args) -> int:
    from repro.experiments.summary import collect_reports

    print(collect_reports())
    return 0


def _record(args, entry, history_file, write_baseline) -> int:
    """Log the history append; ``--write-baseline`` then calls ``write_baseline()``.

    A dirty or unknown checkout refuses the write (exit 2) unless
    ``--allow-dirty`` is given.
    """
    from repro.experiments.errorbudget import baseline_guard

    if history_file is not None:
        _log.info("history updated", extra={"fields": {"path": os.fspath(history_file)}})
    if not args.write_baseline:
        return 0
    refusal = baseline_guard(entry, allow_dirty=args.allow_dirty)
    if refusal is not None:
        print(refusal, file=sys.stderr)
        return 2
    path = write_baseline()
    _log.info("baseline snapshot written", extra={"fields": {"path": os.fspath(path)}})
    return 0


def _run_bench(args) -> int:
    from repro.experiments.bench import render_bench_entry, run_bench, write_baseline

    names = [args.bench] if args.bench else list(BENCHMARK_NAMES)
    entry, history_file = run_bench(
        names=names, scale=_SCALES[args.scale], seed=args.seed, history_path=args.history
    )
    print(render_bench_entry(entry))
    return _record(args, entry, history_file, lambda: write_baseline(entry))


def _run_errorbudget(args) -> int:
    """Stage-attribution harness: counterfactual error budget per bench.

    Trials: ``--trials``, else the scale's noise-trial budget.
    ``--check`` validates the in-process OpenMetrics exposition carries
    the published ``error_budget_*`` families (CI smoke).
    """
    from repro.analysis.errorbudget import ErrorBudgetConfig
    from repro.experiments.bench import write_baseline
    from repro.experiments.errorbudget import ERRORBUDGET_BASELINE_FILE, run_errorbudget

    scale = _SCALES[args.scale]
    trials = args.trials if args.trials is not None else scale.noise_trials
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
    code = _record(args, entry, history_file,
                   lambda: write_baseline(entry, ERRORBUDGET_BASELINE_FILE))
    if code:
        return code
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
        print("nothing to compare: need at least one history entry "
              "(run `python -m repro bench`) and a resolvable baseline")
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
    md_path, html_path = write_report(history, out_dir=args.out)
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
    result = run_fig_faults(
        scale=scale,
        seed=args.seed,
        benchmarks=(args.bench,) if args.bench else None,
        workers=args.workers,
        policy=RetryPolicy.from_env(),
        chaos=not args.no_chaos,
    )
    print(result.render())
    _manifest(args, "faults", seed=args.seed, scale=scale,
              extra={"campaign": result.to_dict()})
    return 0


_SMOKE_REQUESTS = 40
_SMOKE_THREADS = 4


def _post_predict(url, inputs):
    """POST ``inputs`` to ``url``'s ``/v1/predict``: the outputs as an
    array, or the failure as text."""
    import urllib.error
    import urllib.request

    import numpy as np

    request = urllib.request.Request(
        url + "/v1/predict", data=json.dumps({"inputs": inputs.tolist()}).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as fh:
            return np.asarray(json.loads(fh.read())["outputs"])
    except urllib.error.HTTPError as exc:
        exc.close()
        return f"HTTP {exc.code}"
    except (OSError, ValueError, KeyError) as exc:
        return repr(exc)


def _serve_smoke(model, seed) -> int:
    """Serve ``model`` on an ephemeral port and check it end to end.

    One served response must equal the in-process prediction bit for
    bit; ``_SMOKE_REQUESTS`` requests from ``_SMOKE_THREADS`` threads
    (concurrent, so the micro-batcher fuses some) must all answer 200
    with one output row per sample; ``/metrics`` must validate.  Prints
    a JSON summary and returns 0, or 2 on any failure.
    """
    import urllib.request
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    from repro.obs import openmetrics
    from repro.serve.service import BackgroundServer

    failures = []
    with BackgroundServer(model, port=0) as server:
        with urllib.request.urlopen(server.url + "/healthz", timeout=10) as fh:
            health = json.loads(fh.read())
        if health.get("status") != "ok":
            failures.append(f"healthz: {health}")
        engine = server.service.engine
        rng = np.random.default_rng(seed)
        probe = rng.uniform(0.0, 1.0, size=(4, engine.in_dim))
        served = _post_predict(server.url, probe)
        if isinstance(served, str):
            failures.append(f"differential check: {served}")
        elif not np.array_equal(served, model.system.predict(probe)):
            failures.append("differential check: served != in-process prediction")
        payloads = rng.uniform(0.0, 1.0, size=(_SMOKE_REQUESTS, 2, engine.in_dim))
        with ThreadPoolExecutor(_SMOKE_THREADS) as pool:
            answers = list(pool.map(lambda x: _post_predict(server.url, x), payloads))
        ok = sum(not isinstance(a, str) and a.shape == (2, engine.out_dim) for a in answers)
        if ok != _SMOKE_REQUESTS:
            errors = sorted({a for a in answers if isinstance(a, str)})
            failures.append(f"requests: {ok}/{_SMOKE_REQUESTS} ok {errors}")
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
        "requests": {"sent": _SMOKE_REQUESTS, "ok": ok},
        "failures": failures,
    }
    print(json.dumps(summary, indent=2))
    for failure in failures:
        print(f"serve --smoke: {failure}", file=sys.stderr)
    return 2 if failures else 0


def _run_serve(args) -> int:
    """The inference service: artifact -> micro-batched HTTP request path.

    Always materializes through the on-disk artifact (train -> save ->
    load) so every serving process exercises the exact path a
    production deploy would; ``--smoke`` additionally differential-
    checks a served response against the in-process prediction
    (``docs/serving.md``).
    """
    import pathlib

    from repro.config import knobs
    from repro.serve import load_artifact, save_artifact, train_serve_system

    artifact = args.artifact
    if artifact is None or not pathlib.Path(artifact).exists():
        name = args.bench
        scale = _SCALES[args.scale]
        ensemble = args.ensemble if args.ensemble > 1 else 0
        _log.info(
            "training serve system",
            extra={"fields": {"benchmark": name, "scale": scale.name,
                              "seed": args.seed, "ensemble": ensemble}},
        )
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
        return _serve_smoke(model, args.seed)

    from repro.serve.service import run_service

    print(
        f"serving {model.kind} model ({model.meta.get('benchmark')}) — "
        f"POST /v1/predict, GET /metrics (Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        run_service(model, port=args.port)
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
        from repro.lintrules.graph import REPRO_CONTRACT, build_graph

        files = engine.iter_python_files(targets)
        graph = build_graph([(path, tree) for path, _, tree in engine.parse_files(files)])
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


def _flags(*specs) -> argparse.ArgumentParser:
    """A parent parser holding ``(flag, add_argument kwargs)`` pairs."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in specs:
        parent.add_argument(flag, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The CLI: one subparser per command, each with only the flags it reads."""
    common = _flags(("--log-level", dict(
        default=None, choices=["debug", "info", "warning", "error"],
        help="diagnostic verbosity on stderr (default: REPRO_LOG or info)")))
    seed = _flags(("--seed", dict(type=int, default=0, help="experiment seed")))
    budget = _flags(("--scale", dict(
        choices=list(_SCALES), default=default_scale().name,
        help="budget: 'quick' finishes in minutes, 'full' is the paper's "
             "(10k train samples, 400 epochs, 100 noise trials); default "
             "'full' when REPRO_FULL is set, else 'quick'")))
    run_dir = _flags(("--run-dir", dict(
        default=None, metavar="DIR",
        help="directory for run manifests (default: REPRO_RUN_DIR or 'runs/')")))
    bench = _flags(("--bench", dict(choices=BENCHMARK_NAMES, default=None,
                                    help="restrict the run to one benchmark")))
    history = _flags(("--history", dict(
        default=None, metavar="PATH",
        help="run-history store (default: REPRO_HISTORY or 'runs/history.jsonl')")))
    ensemble = _flags(("--ensemble", dict(
        type=int, default=1, metavar="K", help="SAAB ensemble size; 1 = single MEI")))
    as_json = _flags(("--json", dict(action="store_true",
                                     help="print the machine-readable report as JSON")))
    baseline = _flags(
        ("--write-baseline", dict(
            action="store_true",
            help="also write the entry to the kind's committed baseline snapshot "
                 "(refused on a dirty/unknown git checkout)")),
        ("--allow-dirty", dict(
            action="store_true",
            help="let --write-baseline proceed despite a dirty/unknown git checkout")),
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the tables/figures of 'Merging the Interface' (DAC 2015).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(name, run, text, *parents) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=text, description=text,
                                  parents=[common, *parents])
        sub.set_defaults(run=run, parser=sub)
        return sub

    command("fig2", _run_fig2, "Fig. 2 interface cost breakdown", run_dir)
    command("fig3", _run_figure, "Fig. 3 hidden-size sweep", seed, budget, run_dir)
    command("table1", _run_table1, "Table 1 (every row, or one with --bench)",
            seed, budget, run_dir, bench)
    command("fig4", _run_figure, "Fig. 4 method comparison", seed, budget, run_dir)
    command("fig5", _run_figure, "Fig. 5 robustness sweeps", seed, budget, run_dir)
    command("bitlength", _run_figure, "MEI word-length extension", seed, budget, run_dir)
    command("all", _run_figure, "every table and figure, in paper order",
            seed, budget, run_dir)

    sub = command("faults", _run_faults,
                  "stuck-at fault-injection campaign (manifest always written)",
                  seed, run_dir, bench)
    sub.add_argument("--scale", default="fast", choices=["fast", "quick", "full"],
                     help="campaign budget (default fast)")
    sub.add_argument("--workers", type=int, default=2, metavar="N",
                     help="executor worker count (default 2, so the chaos drill "
                          "has a process pool to crash)")
    sub.add_argument("--no-chaos", action="store_true",
                     help="skip the forced worker-crash drill")

    command("bench", _run_bench,
            "run the benchmark suite and append to the run history",
            seed, budget, bench, history, baseline)

    sub = command("errorbudget", _run_errorbudget,
                  "attribute the real-vs-ideal accuracy gap to pipeline stages "
                  "via counterfactual idealization",
                  seed, budget, bench, history, as_json, baseline, ensemble)
    sub.add_argument("--trials", type=int, default=None, metavar="N",
                     help="Monte-Carlo trials per variant (default: the scale's "
                          "noise-trial budget)")
    sub.add_argument("--sigma-pv", type=float, default=0.1, metavar="S",
                     help="lognormal process-variation sigma of the 'real' "
                          "system (default 0.1)")
    sub.add_argument("--sigma-sf", type=float, default=0.05, metavar="S",
                     help="signal-fluctuation sigma of the 'real' system "
                          "(default 0.05)")
    sub.add_argument("--comparator-offset", type=float, default=0.05, metavar="S",
                     help="comparator offset sigma of the 'real' system "
                          "(default 0.05)")
    sub.add_argument("--wire-resistance", type=float, default=2.0, metavar="OHMS",
                     help="per-segment wire resistance of the 'real' system "
                          "(default 2.0, the 90nm node)")
    sub.add_argument("--workers", type=int, default=None, metavar="N",
                     help="executor worker count (default: REPRO_WORKERS)")
    sub.add_argument("--check", action="store_true",
                     help="exit non-zero unless the OpenMetrics exposition "
                          "carries the error_budget_* families (CI smoke test)")

    sub = command("compare", _run_compare,
                  "gate the latest history entry against a baseline", history, as_json)
    sub.add_argument("--baseline", default=None, metavar="SHA",
                     help="baseline commit (prefix ok); resolved through history, "
                          "falling back to the baseline snapshot")
    sub.add_argument("--baseline-file", default="benchmarks/baseline.json",
                     metavar="PATH", help="committed baseline snapshot fallback")
    sub.add_argument("--strict", action="store_true",
                     help="also fail when a baseline metric is missing from the "
                          "current run")
    sub.add_argument("--kind", default=None, metavar="KIND",
                     help="restrict both sides to history entries of one kind "
                          "(e.g. 'errorbudget', which also swaps in "
                          "benchmarks/errorbudget_baseline.json as the snapshot "
                          "fallback)")

    sub = command("report", _run_report,
                  "render the trajectory report (markdown + HTML)", history)
    sub.add_argument("--out", default="runs", metavar="DIR",
                     help="output directory for report.md/report.html "
                          "(default 'runs/')")

    command("summary", _run_summary, "collate archived bench tables")

    sub = command("lint", _run_lint, "run the repro-lint invariant checker", as_json)
    sub.add_argument("--paths", nargs="*", default=None, metavar="PATH",
                     help="files/directories to check (default: the installed "
                          "repro package source)")
    sub.add_argument("--list-rules", action="store_true",
                     help="print the RPR rule catalogue and exit")
    sub.add_argument("--graph", choices=["dot", "svg"], default=None,
                     help="print the package import graph (layer level, lazy "
                          "edges dashed) instead of linting")

    sub = command("serve", _run_serve,
                  "run the micro-batched inference service over a model artifact",
                  seed, budget, run_dir, ensemble)
    sub.add_argument("--bench", choices=BENCHMARK_NAMES, default="fft",
                     help="benchmark to train when there is no artifact (default fft)")
    sub.add_argument("--port", type=int, default=None, metavar="N",
                     help="listen port (default: REPRO_SERVE_PORT or 9600; "
                          "0 = ephemeral)")
    sub.add_argument("--artifact", default=None, metavar="PATH",
                     help="model artifact to load; when the file does not exist, "
                          "a system is trained (--bench/--seed/--scale/--ensemble) "
                          "and the artifact written there first")
    sub.add_argument("--save-only", action="store_true",
                     help="build/write the model artifact and exit without "
                          "starting the server")
    sub.add_argument("--smoke", action="store_true",
                     help="self-test: serve on an ephemeral port, run the "
                          "differential check and 40 concurrent requests, "
                          "validate /metrics, then exit (non-zero on failure)")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A flag the command does not take is reported by the command's own
    # parser, so the error shows the usage line of the flags it does take.
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    args.argv = argv  # what the run manifests record
    # CLI runs default to info-level progress on stderr; --log-level
    # and REPRO_LOG override.
    obs_log.configure(
        level=args.log_level if args.log_level else obs_log.level_from_env(logging.INFO),
        force=True,
    )
    return args.run(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # `python -m repro ... | head` closes stdout early; swallow the
        # resulting write failure instead of dumping a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
