"""OpenMetrics text exposition for the metrics registry.

Renders the process-wide :class:`~repro.obs.metrics.MetricsRegistry`
in the OpenMetrics / Prometheus text format:

* :func:`render` — registry snapshot → exposition text, with counter
  families (``repro_<name>_total``), gauges, full histogram families
  (cumulative ``_bucket{le=...}`` over the shared
  :data:`~repro.obs.metrics.BUCKET_BOUNDS` ladder, ``_sum``,
  ``_count``) and a live quantile gauge family per histogram
  (``repro_<name>_quantiles{quantile="0.5"}``) so p50/p99 are
  scrapeable without a query engine;
* :func:`validate` — a grammar-lite checker for the text format used
  by the test suite and the CI smoke step.

The ``GET /metrics`` route of :mod:`repro.serve.service` serves
:func:`render`'s output.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

from repro.obs import metrics as _metrics

__all__ = [
    "CONTENT_TYPE",
    "render",
    "validate",
    "metric_name",
]

CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"
"""Content type of the ``/metrics`` response."""

PREFIX = "repro_"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

_QUANTILE_POINTS: Tuple[float, ...] = (0.5, 0.95, 0.99)


def metric_name(name: str) -> str:
    """Registry metric name → legal prefixed OpenMetrics family name."""
    cleaned = _SANITIZE.sub("_", name.strip())
    if not cleaned or not _NAME_OK.match(f"{PREFIX}{cleaned}"):
        cleaned = f"invalid_{abs(hash(name)) % 10_000}"
    return f"{PREFIX}{cleaned}"


def _format_value(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _le_label(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else _format_value(bound)


def render(snapshot: Optional[Dict[str, Dict[str, object]]] = None) -> str:
    """The registry snapshot as OpenMetrics exposition text.

    Ends with the mandatory ``# EOF`` terminator.
    """
    snap = snapshot if snapshot is not None else _metrics.snapshot()
    lines: List[str] = []

    for name, value in sorted(snap.get("counters", {}).items()):
        family = metric_name(name)
        lines.append(f"# TYPE {family} counter")
        lines.append(f"# HELP {family} Registry counter {name}.")
        lines.append(f"{family}_total {_format_value(float(value))}")

    for name, value in sorted(snap.get("gauges", {}).items()):
        family = metric_name(name)
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"# HELP {family} Registry gauge {name}.")
        lines.append(f"{family} {_format_value(float(value))}")

    for name, summary in sorted(snap.get("histograms", {}).items()):
        if not summary:
            continue
        family = metric_name(name)
        count = int(summary.get("count") or 0)
        total = float(summary.get("sum") or 0.0)
        buckets = summary.get("buckets")
        lines.append(f"# TYPE {family} histogram")
        lines.append(f"# HELP {family} Registry histogram {name} (seconds).")
        if isinstance(buckets, (list, tuple)) and len(buckets) == len(
            _metrics.BUCKET_BOUNDS
        ):
            cumulative = 0
            for bound, bucket_count in zip(_metrics.BUCKET_BOUNDS, buckets):
                cumulative += int(bucket_count)
                lines.append(
                    f'{family}_bucket{{le="{_le_label(bound)}"}} {cumulative}'
                )
        else:
            lines.append(f'{family}_bucket{{le="+Inf"}} {count}')
        lines.append(f"{family}_sum {_format_value(total)}")
        lines.append(f"{family}_count {count}")
        if count:
            qfamily = f"{family}_quantiles"
            lines.append(f"# TYPE {qfamily} gauge")
            lines.append(
                f"# HELP {qfamily} Live streaming quantile estimates for {name}."
            )
            for q in _QUANTILE_POINTS:
                estimate = _metrics.quantile_from_summary(summary, q)
                lines.append(
                    f'{qfamily}{{quantile="{q}"}} {_format_value(estimate)}'
                )

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>-?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|\+Inf|-Inf|NaN))"
    r"(?: -?\d+\.?\d*)?$"
)
_LABEL = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def validate(text: str) -> None:
    """Grammar-lite OpenMetrics validation; raises ``ValueError``.

    Checks the properties the scrape contract depends on: every line
    is a well-formed comment or sample, label pairs parse, sample
    names belong to a family declared by a preceding ``# TYPE`` line,
    counter samples use the ``_total`` suffix, and the payload ends
    with exactly one ``# EOF`` terminator.
    """
    errors: List[str] = []
    types: Dict[str, str] = {}
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines or lines[-1] != "# EOF":
        errors.append("payload must end with '# EOF'")
    for lineno, line in enumerate(lines, 1):
        if not line:
            errors.append(f"line {lineno}: empty line")
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if line == "# EOF":
                if lineno != len(lines):
                    errors.append(f"line {lineno}: '# EOF' before end of payload")
                continue
            if len(parts) < 4 or parts[1] not in ("TYPE", "HELP", "UNIT"):
                errors.append(f"line {lineno}: malformed comment {line!r}")
                continue
            if parts[1] == "TYPE":
                if parts[3] not in (
                    "counter", "gauge", "histogram", "summary",
                    "info", "stateset", "unknown",
                ):
                    errors.append(f"line {lineno}: unknown TYPE {parts[3]!r}")
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_LINE.match(line)
        if not match:
            errors.append(f"line {lineno}: malformed sample {line!r}")
            continue
        name = match.group("name")
        labels = match.group("labels")
        if labels:
            body = labels[1:-1]
            if body:
                for pair in body.split(","):
                    if not _LABEL.match(pair.strip()):
                        errors.append(f"line {lineno}: malformed label {pair!r}")
        family = name
        for suffix in ("_total", "_bucket", "_sum", "_count", "_created"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                family = name[: -len(suffix)]
                break
        declared = types.get(family)
        if declared is None:
            errors.append(f"line {lineno}: sample {name!r} has no TYPE declaration")
            continue
        if declared == "counter" and not name.endswith(("_total", "_created")):
            errors.append(
                f"line {lineno}: counter sample {name!r} must use the _total suffix"
            )
        if declared == "histogram" and name == family:
            errors.append(
                f"line {lineno}: bare histogram sample {name!r} "
                "(expected _bucket/_sum/_count)"
            )
    if errors:
        raise ValueError("invalid OpenMetrics payload:\n" + "\n".join(errors))

