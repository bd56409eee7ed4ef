"""Trajectory reporting: markdown tables and a self-contained HTML page.

Renders the run history (:mod:`repro.obs.history`) into something a
human scans in seconds:

* :func:`render_markdown` — one metric table with unicode sparklines,
  first/last values and deltas, plus the latest error budget;
* :func:`render_html` — one dependency-free HTML file (inline CSS +
  inline SVG sparklines) suitable for a CI artifact.

Everything is stdlib-only; the HTML embeds no external assets so the
file stays viewable offline and in artifact browsers.
"""

from __future__ import annotations

import html as _html
import pathlib
from math import nan
from typing import Dict, List, Sequence, Tuple

from repro.obs import compare as _compare
from repro.obs import history as _history

__all__ = [
    "SPARK_CHARS",
    "BUDGET_PALETTE",
    "sparkline",
    "svg_sparkline",
    "stacked_budget_svg",
    "errorbudget_breakdown",
    "trajectories",
    "render_markdown",
    "render_html",
    "write_report",
]

SPARK_CHARS = "▁▂▃▄▅▆▇█"

BUDGET_PALETTE = (
    "#3b5bdb",
    "#e8590c",
    "#2b8a3e",
    "#d6336c",
    "#f08c00",
    "#0c8599",
    "#6741d9",
    "#868e96",
)
"""Stage colors for the stacked error-budget bars (cycled)."""


def sparkline(values: Sequence[float]) -> str:
    """Unicode mini-chart of a metric trajectory (empty for <1 point)."""
    values = [float(v) for v in values]
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi - lo <= 0:
        return SPARK_CHARS[0] * len(values)
    scale = (len(SPARK_CHARS) - 1) / (hi - lo)
    return "".join(SPARK_CHARS[int(round((v - lo) * scale))] for v in values)


def svg_sparkline(
    values: Sequence[float], width: int = 120, height: int = 24
) -> str:
    """Inline SVG polyline for the HTML report (self-contained)."""
    values = [float(v) for v in values]
    if not values:
        return ""
    if len(values) == 1:
        values = values * 2
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    pad = 2.0
    step = (width - 2 * pad) / (len(values) - 1)
    points = " ".join(
        f"{pad + i * step:.1f},{height - pad - (v - lo) / span * (height - 2 * pad):.1f}"
        for i, v in enumerate(values)
    )
    last_x = pad + (len(values) - 1) * step
    last_y = height - pad - (values[-1] - lo) / span * (height - 2 * pad)
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">'
        f'<polyline fill="none" stroke="currentColor" stroke-width="1.5" '
        f'points="{points}"/>'
        f'<circle cx="{last_x:.1f}" cy="{last_y:.1f}" r="2"/></svg>'
    )


def stacked_budget_svg(
    segments: Sequence[Tuple[str, float]],
    width: int = 360,
    height: int = 18,
    palette: Sequence[str] = BUDGET_PALETTE,
) -> str:
    """Inline SVG stacked bar; segment widths ∝ ``|value|``.

    Each segment carries a ``<title>`` tooltip with its label and
    signed value (a stage whose idealization *hurts* shows up with a
    negative delta but still occupies its share of the bar).
    """
    segments = [(str(label), float(value)) for label, value in segments]
    total = sum(abs(value) for _, value in segments)
    if total <= 0:
        return ""
    parts = [
        f'<svg class="budget" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">'
    ]
    x = 0.0
    for i, (label, value) in enumerate(segments):
        w = abs(value) / total * width
        color = palette[i % len(palette)]
        tooltip = _html.escape(f"{label}: {value:+.4g}")
        parts.append(
            f'<rect x="{x:.1f}" y="0" width="{w:.1f}" height="{height}" '
            f'fill="{color}"><title>{tooltip}</title></rect>'
        )
        x += w
    parts.append("</svg>")
    return "".join(parts)


def errorbudget_breakdown(
    history: Sequence[Dict[str, object]],
) -> Dict[str, Dict[str, object]]:
    """Latest per-benchmark error-budget decomposition in the history.

    Parses the flat ``errorbudget.<bench>.*`` metric names of the
    newest ``kind == "errorbudget"`` entry back into ``{bench:
    {"stages": [(stage, delta), ...], "leave_one_in": {stage: delta},
    "bitplanes": [rate, ...], "total_gap": ..., "residual": ...,
    "err_real": ..., "err_ideal": ..., "weighted_bit_error": ...,
    "snr_db": ...}}``, stages sorted by descending delta and bit
    planes MSB first.  Empty when no errorbudget entry exists.
    """
    newest = _history.latest_entry(_history.entries_of_kind(history, "errorbudget"))
    metrics = newest.get("metrics") if newest else None
    if not isinstance(metrics, dict):
        return {}
    out: Dict[str, Dict[str, object]] = {}
    for name, value in metrics.items():
        if not name.startswith("errorbudget.") or isinstance(value, bool):
            continue
        if not isinstance(value, (int, float)):
            continue
        parts = name.split(".")
        bench = parts[1]
        record = out.setdefault(
            bench, {"stages": [], "leave_one_in": {}, "bitplanes": []}
        )
        if len(parts) == 5 and parts[2] == "stage" and parts[4] == "delta":
            record["stages"].append((parts[3], float(value)))
        elif len(parts) == 5 and parts[2] == "stage" and parts[4] == "leave_one_in":
            record["leave_one_in"][parts[3]] = float(value)
        elif len(parts) == 4 and parts[2] == "bitplane" and parts[3][3:].isdigit():
            record["bitplanes"].append((int(parts[3][3:]), float(value)))
        elif len(parts) == 3 and parts[2] in (
            "total_gap", "residual", "err_real", "err_ideal",
            "weighted_bit_error", "snr_db",
        ):
            record[parts[2]] = float(value)
    for record in out.values():
        record["stages"].sort(key=lambda item: -item[1])
        record["bitplanes"] = [rate for _, rate in sorted(record["bitplanes"])]
    return {bench: rec for bench, rec in out.items() if rec["stages"]}


def trajectories(
    history: Sequence[Dict[str, object]],
) -> Dict[str, List[Tuple[str, str, float]]]:
    """Per-metric ``(created, short-sha, value)`` series, history order."""
    out: Dict[str, List[Tuple[str, str, float]]] = {}
    for entry in history:
        metrics = entry.get("metrics")
        if not isinstance(metrics, dict):
            continue
        created = str(entry.get("created", ""))
        sha = str(entry.get("git_sha") or "unknown")[:12]
        for name, value in metrics.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            out.setdefault(name, []).append((created, sha, float(value)))
    return out


def render_markdown(
    history: Sequence[Dict[str, object]],
    title: str = "Benchmark trajectory",
) -> str:
    """Markdown report: the metric table, then the error budget."""
    series = trajectories(history)
    lines = [f"# {title}", ""]
    if not series:
        lines.append("_No history entries yet — run `python -m repro bench`._")
        return "\n".join(lines) + "\n"
    entries = [e for e in history if isinstance(e.get("metrics"), dict)]
    shas = [str(e.get("git_sha") or "unknown")[:12] for e in entries]
    lines.append(
        f"{len(entries)} run(s), {len(series)} metric(s), "
        f"commits {shas[0]} → {shas[-1]}."
    )
    lines.append("")
    lines.append("## Accuracy metrics")
    lines.append("")
    lines.append("| metric | n | first | last | delta | trend |")
    lines.append("|---|---:|---:|---:|---:|---|")
    for name in sorted(series):
        points = [v for _, _, v in series[name]]
        delta = points[-1] - points[0]
        lines.append(
            f"| `{name}` | {len(points)} | {points[0]:.6g} | {points[-1]:.6g} "
            f"| {delta:+.6g} | {sparkline(points)} |"
        )
    lines.append("")
    budget = errorbudget_breakdown(history)
    if budget:
        lines.append("## Error budget (latest attribution run)")
        lines.append("")
        lines.append(
            "Per-stage accuracy recovered by idealizing that stage alone "
            "(counterfactual attribution; see docs/observability.md)."
        )
        lines.append("")
        for bench in sorted(budget):
            record = budget[bench]
            gap = float(record.get("total_gap", 0.0))
            lines.append(
                f"**`{bench}`** — error {record.get('err_real', float('nan')):.4g} real "
                f"→ {record.get('err_ideal', float('nan')):.4g} ideal, "
                f"gap {gap:.4g}, residual {record.get('residual', 0.0):+.4g}"
            )
            lines.append("")
            lines.append("| stage | delta | share | |")
            lines.append("|---|---:|---:|---|")
            magnitude = sum(abs(d) for _, d in record["stages"]) or 1.0
            for stage, delta in record["stages"]:
                share = abs(delta) / magnitude
                bar = "█" * max(1, int(round(share * 20))) if delta else ""
                lines.append(f"| `{stage}` | {delta:+.4g} | {share:.0%} | {bar} |")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


_HTML_STYLE = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', sans-serif; margin: 2rem auto;
       max-width: 70rem; padding: 0 1rem; color: #1a1a2e; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: 0.3rem 0.6rem; border-bottom: 1px solid #e0e0ea; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
code { background: #f2f2f8; padding: 0.1rem 0.3rem; border-radius: 3px; }
.spark { color: #3b5bdb; vertical-align: middle; }
.meta { color: #667; }
.delta-bad { color: #c0392b; } .delta-good { color: #1e8449; }
""".strip()


def render_html(
    history: Sequence[Dict[str, object]],
    title: str = "Benchmark trajectory",
) -> str:
    """Self-contained HTML page mirroring :func:`render_markdown`."""
    series = trajectories(history)
    entries = [e for e in history if isinstance(e.get("metrics"), dict)]
    esc = _html.escape

    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{esc(title)}</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head><body>",
        f"<h1>{esc(title)}</h1>",
    ]
    if not entries:
        parts.append(
            "<p class='meta'>No history entries yet — run "
            "<code>python -m repro bench</code>.</p></body></html>"
        )
        return "\n".join(parts)
    shas = [str(e.get("git_sha") or "unknown")[:12] for e in entries]
    parts.append(
        f"<p class='meta'>{len(entries)} run(s), {len(series)} metric(s), "
        f"commits <code>{esc(shas[0])}</code> → <code>{esc(shas[-1])}</code>, "
        f"latest {esc(str(entries[-1].get('created', '')))}.</p>"
    )

    parts.append("<h2>Accuracy metrics</h2>")
    parts.append(
        "<table><thead><tr><th>metric</th><th class='num'>n</th>"
        "<th class='num'>first</th><th class='num'>last</th>"
        "<th class='num'>delta</th><th>trend</th></tr></thead><tbody>"
    )
    for name in sorted(series):
        points = [v for _, _, v in series[name]]
        delta = points[-1] - points[0]
        worse = (delta > 0) != _compare.higher_is_better(name) and delta != 0
        cls = "delta-bad" if worse else "delta-good"
        parts.append(
            f"<tr><td><code>{esc(name)}</code></td>"
            f"<td class='num'>{len(points)}</td>"
            f"<td class='num'>{points[0]:.6g}</td>"
            f"<td class='num'>{points[-1]:.6g}</td>"
            f"<td class='num {cls}'>{delta:+.6g}</td>"
            f"<td>{svg_sparkline(points)}</td></tr>"
        )
    parts.append("</tbody></table>")

    budget = errorbudget_breakdown(history)
    if budget:
        parts.append("<h2>Error budget (latest attribution run)</h2>")
        parts.append(
            "<p class='meta'>Per-stage accuracy recovered by idealizing that "
            "stage alone (counterfactual attribution); hover a segment for "
            "its signed delta. See <code>docs/observability.md</code>.</p>"
        )
        parts.append(
            "<table><thead><tr><th>benchmark</th><th class='num'>err real</th>"
            "<th class='num'>err ideal</th><th class='num'>gap</th>"
            "<th class='num'>residual</th><th>stage budget</th></tr></thead><tbody>"
        )
        legend_stages: List[str] = []
        for bench in sorted(budget):
            record = budget[bench]
            for stage, _ in record["stages"]:
                if stage not in legend_stages:
                    legend_stages.append(stage)
        stage_color = {
            stage: BUDGET_PALETTE[i % len(BUDGET_PALETTE)]
            for i, stage in enumerate(legend_stages)
        }
        for bench in sorted(budget):
            record = budget[bench]
            palette = [stage_color[stage] for stage, _ in record["stages"]]
            bar = stacked_budget_svg(record["stages"], palette=palette)
            parts.append(
                f"<tr><td><code>{esc(bench)}</code></td>"
                f"<td class='num'>{float(record.get('err_real', nan)):.4f}</td>"
                f"<td class='num'>{float(record.get('err_ideal', nan)):.4f}</td>"
                f"<td class='num'>{float(record.get('total_gap', 0.0)):.4g}</td>"
                f"<td class='num'>{float(record.get('residual', 0.0)):+.4g}</td>"
                f"<td>{bar}</td></tr>"
            )
        parts.append("</tbody></table>")
        legend = " ".join(
            f"<span style='color:{stage_color[stage]}'>■</span> "
            f"<code>{esc(stage)}</code>"
            for stage in legend_stages
        )
        parts.append(f"<p class='meta'>{legend}</p>")
        parts.append("<h3>Per-stage detail</h3>")
        for bench in sorted(budget):
            record = budget[bench]
            gap = float(record.get("total_gap", 0.0))
            parts.append(
                f"<h4><code>{esc(bench)}</code></h4>"
                "<table><thead><tr><th>stage</th><th class='num'>delta</th>"
                "<th class='num'>share of gap</th>"
                "<th class='num'>leave-one-in</th></tr></thead><tbody>"
            )
            for stage, delta in record["stages"]:
                share = f"{delta / gap:+.0%}" if gap else "-"
                loi = record["leave_one_in"].get(stage, nan)
                parts.append(
                    f"<tr><td><code>{esc(stage)}</code></td>"
                    f"<td class='num'>{delta:+.5f}</td>"
                    f"<td class='num'>{share}</td>"
                    f"<td class='num'>{loi:+.5f}</td></tr>"
                )
            parts.append("</tbody></table>")
            planes = " ".join(f"{rate:.3f}" for rate in record["bitplanes"])
            parts.append(
                f"<p class='meta'>bit-plane error rates MSB→LSB: {planes} "
                f"(Eq. 5 weighted: {float(record.get('weighted_bit_error', nan)):.4f}, "
                f"SNR {float(record.get('snr_db', nan)):.1f} dB)</p>"
            )
    parts.append("</body></html>")
    return "\n".join(parts)


def write_report(
    history: Sequence[Dict[str, object]],
    out_dir: "str | pathlib.Path" = "runs",
    stem: str = "report",
    title: str = "Benchmark trajectory",
) -> Tuple[pathlib.Path, pathlib.Path]:
    """Write ``<out_dir>/<stem>.md`` and ``.html``; return both paths."""
    directory = pathlib.Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    md_path = directory / f"{stem}.md"
    html_path = directory / f"{stem}.html"
    md_path.write_text(render_markdown(history, title=title), encoding="utf-8")
    html_path.write_text(render_html(history, title=title), encoding="utf-8")
    return md_path, html_path

