"""Traced serving process: ``python -m repro serve`` with the layer probes.

Installs ``layers.CHAIN`` and ``layers.SERVE`` in this process, loads the
artifact and calls ``repro.serve.service.run_service``.  On SIGINT it
writes its spans, the serving counters and the mapping-cache hit ratio
as JSON to ``--spans`` and exits.

    python perfbench/serve_launcher.py --artifact A.npz --port 9600 --spans out.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json

import layers
import tracing


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    tracer = tracing.Tracer()
    tracing.install(tracer, layers.CHAIN + layers.SERVE)
    from repro.obs import metrics
    from repro.serve import load_artifact
    from repro.serve.service import run_service
    from repro.xbar.mapping import mapping_cache_stats

    try:
        run_service(load_artifact(args.artifact), port=args.port)
    except KeyboardInterrupt:
        pass
    finally:
        counters = metrics.snapshot()["counters"]
        with open(args.spans, "w") as fh:
            json.dump({
                "spans": [dataclasses.asdict(s) for s in tracer.spans],
                "counters": {name: float(counters.get(name, 0.0))
                             for name in ("serve_shed", "serve_retries")},
                "mapping_cache_hit_ratio": mapping_cache_stats()["hit_rate"],
            }, fh)


if __name__ == "__main__":
    main()
