"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig5-mc-jpeg --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
per-layer metrics).  The line before it holds the run's provenance,
output digest and details, also written to
``.perfbench_out/run-<workload>-<seed>-<trace>.json``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (harness.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure under {harness.ROOT / 'src'}", file=sys.stderr)
        return 2
    harness.pin_environment()
    sys.path.insert(0, str(harness.ROOT / "src"))
    harness.OUT_DIR.mkdir(exist_ok=True)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    started = time.monotonic()
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    provenance = harness.provenance(args.workload, args.seed, args.seconds, bool(args.trace))
    key = f"{args.workload}|seed={args.seed}|src={provenance['source_digest']}"
    earlier = harness.check_digest(outcome.checks, key, outcome.digest)
    report = {
        "provenance": provenance,
        "digest": outcome.digest,
        "earlier_digest": earlier,
        "failures": outcome.checks.failures,
        "run_seconds": time.monotonic() - started,
        "details": outcome.details,
        "metrics": outcome.metrics,
    }
    name = f"run-{args.workload}-{args.seed}-{args.trace}.json"
    (harness.OUT_DIR / name).write_text(json.dumps(report, indent=1, default=str))
    line = harness.result_line(outcome.metrics, outcome.checks, bool(args.trace))
    print(json.dumps(report, default=str))
    print(line)
    return 0 if outcome.checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
