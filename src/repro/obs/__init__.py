"""Observability layer: logging, tracing, metrics, manifests, history.

The pillars (see ``docs/observability.md`` and ``docs/benchmarking.md``):

* :mod:`repro.obs.log` — per-module structured loggers on stderr, with
  an optional JSONL sink (``REPRO_LOG`` / ``REPRO_LOG_JSON``);
* :mod:`repro.obs.trace` — nested wall-clock spans with a
  thread/process-safe collector (``REPRO_TRACE=1``);
* :mod:`repro.obs.metrics` — counters / gauges / histograms for the
  pipeline's quantitative telemetry (always on, coarse call sites);
* :mod:`repro.obs.runinfo` — run manifests binding git SHA, host, env
  knobs, seed, span tree and metrics into one archived JSON per run;
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

from repro.obs.compare import (
    ComparisonResult,
    MetricVerdict,
    Tolerance,
    compare_history,
    compare_metrics,
    resolve_baseline,
)
from repro.obs.history import (
    HISTORY_ENV,
    append_entry,
    build_entry,
    load_history,
)
from repro.obs.log import LOG_ENV, LOG_JSON_ENV, configure, get_logger
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    REGISTRY,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    quantile_from_summary,
    reset,
)
from repro.obs.openmetrics import (
    CONTENT_TYPE,
    render,
    validate,
)
from repro.obs.report import render_html, render_markdown, write_report
from repro.obs.runinfo import (
    RUN_DIR_ENV,
    build_manifest,
    environment_info,
    provenance_header,
    write_manifest,
)
from repro.obs.trace import (
    TRACE_ENV,
    SpanRecord,
    render_tree,
    span,
    span_tree,
)

__all__ = [
    "LOG_ENV",
    "LOG_JSON_ENV",
    "TRACE_ENV",
    "RUN_DIR_ENV",
    "HISTORY_ENV",
    "configure",
    "get_logger",
    "MetricsRegistry",
    "REGISTRY",
    "BUCKET_BOUNDS",
    "counter",
    "gauge",
    "histogram",
    "quantile_from_summary",
    "reset",
    "CONTENT_TYPE",
    "render",
    "validate",
    "append_entry",
    "build_entry",
    "load_history",
    "Tolerance",
    "MetricVerdict",
    "ComparisonResult",
    "compare_metrics",
    "compare_history",
    "resolve_baseline",
    "render_markdown",
    "render_html",
    "write_report",
    "SpanRecord",
    "span",
    "span_tree",
    "render_tree",
    "build_manifest",
    "environment_info",
    "provenance_header",
    "write_manifest",
]
