"""Observability layer: logging, metrics, manifests, history.

The pillars (see ``docs/observability.md`` and ``docs/benchmarking.md``):

* :mod:`repro.obs.log` — per-module structured loggers on stderr, with
  an optional JSONL sink (``REPRO_LOG`` / ``REPRO_LOG_JSON``);
* :mod:`repro.obs.metrics` — counters / gauges / histograms for the
  pipeline's quantitative telemetry (always on, coarse call sites);
* :mod:`repro.obs.runinfo` — run manifests binding git SHA, host, env
  knobs, seed, scale and metrics into one archived JSON per run;
* :mod:`repro.obs.history` — the append-only ``runs/history.jsonl``
  store of benchmark trajectories, keyed by git SHA + timestamp;
* :mod:`repro.obs.compare` — the tolerance-aware regression gate
  (baseline resolution, machine-readable verdicts, CI exit codes);
* :mod:`repro.obs.report` — markdown/HTML trajectory reports with
  per-metric sparklines and the latest error budget;
* :mod:`repro.obs.openmetrics` — OpenMetrics text exposition of the
  metrics registry, served at ``GET /metrics`` by ``python -m repro
  serve``.

Everything is dependency-free (stdlib only) and safe to import from
any layer of the package.
"""
