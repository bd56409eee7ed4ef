"""Aggregate bench outputs into one report.

Every bench archives its rendered table under ``benchmarks/out/``;
:func:`collect_reports` gathers them into a single document (the basis
of EXPERIMENTS.md updates), ordered to follow the paper: Fig. 2,
Fig. 3, Table 1, Fig. 4, Fig. 5, the DSE runs, then ablations and
extensions.
"""

from __future__ import annotations

import pathlib
from typing import List, Sequence

__all__ = ["REPORT_ORDER", "collect_reports"]

REPORT_ORDER = (
    "fig2_breakdown",
    "fig3_hidden_sweep",
    "table1_fft",
    "table1_inversek2j",
    "table1_jmeint",
    "table1_jpeg",
    "table1_kmeans",
    "table1_sobel",
    "fig4_methods",
    "fig5_robustness",
    "dse_sobel",
    "dse_mission_impossible",
    "ablation_loss",
    "ablation_saab",
    "ablation_irdrop",
    "ablation_levels",
    "ablation_nonlinearity",
    "ext_bitlength",
    "ext_compensation",
    "ext_timing",
    "ext_variation_aware",
    "tradeoff_kmeans",
)


def collect_reports(
    out_dir: "str | pathlib.Path" = "benchmarks/out",
    order: Sequence[str] = REPORT_ORDER,
    title: str = "Reproduction report",
) -> str:
    """Concatenate archived bench reports in paper order.

    Missing reports are listed at the end (so a partial run still
    produces a useful document); unknown extra files are appended
    after the known ones.
    """
    out_dir = pathlib.Path(out_dir)
    sections: List[str] = [f"# {title}", ""]
    missing: List[str] = []
    seen = set()
    for name in order:
        path = out_dir / f"{name}.txt"
        if path.exists():
            sections.append(path.read_text().rstrip())
            sections.append("")
            seen.add(path.name)
        else:
            missing.append(name)
    if out_dir.exists():
        for path in sorted(out_dir.glob("*.txt")):
            if path.name not in seen:
                sections.append(path.read_text().rstrip())
                sections.append("")
    if missing:
        sections.append("Missing reports (bench not yet run): " + ", ".join(missing))
    return "\n".join(sections).rstrip() + "\n"
