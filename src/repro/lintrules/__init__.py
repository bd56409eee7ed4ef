"""repro-lint: AST-based enforcement of the repository's invariants.

The reproducibility story of this repo (serial/parallel equivalence,
replayable Monte-Carlo noise, provenance-complete run manifests) rests
on conventions that ordinary linters cannot see.  This package encodes
them as named, machine-checked rules — per-file AST checks plus
whole-program analyses over the package import graph:

========  ==========================================================
RPR001    no unseeded ``np.random.default_rng()`` / ``Generator()``
          in library code — thread an rng or use ``fresh_rng()``
RPR002    no legacy global RNG state (``np.random.seed`` /
          ``np.random.rand`` / stdlib ``random``)
RPR003    every environment read goes through the
          ``repro.config.knobs`` registry, not ``os.environ``
RPR004    no ``print()`` / ``sys.stdout`` in library modules —
          stdout is reserved for result tables, diagnostics go to
          ``repro.obs.log``
RPR005    no hand-rolled ``isinstance(rng, Generator)``
          normalization — use ``seeding.ensure_rng()``
RPR006    the package DAG honours the layering contract
          (``lintrules.graph``) and is cycle-free at module scope
RPR007    hot-path packages (nn/xbar/quant/analog) allocate at the
          chip's or the array's dtype, never with raw float dtype
          literals
RPR008    knob lifecycle: every registered ``REPRO_*`` knob is read
          (lazily, never at import time) and documented
RPR009    metric objects come from the registry factories and family
          names never collide
RPR010    executors and shared-memory segments are context-managed
========  ==========================================================

Run with ``python -m repro lint [--json | --graph dot|svg]``; suppress
one finding with an end-of-line ``# repro-lint: disable=RPRnnn``
comment (add a justification).  See ``docs/static-analysis.md`` for
the full catalogue, the layering contract and the rationale.
"""

from repro.lintrules.engine import (
    SCHEMA_VERSION,
    check_source,
    render_human,
    render_json,
    run_paths,
    suppressed_lines,
)
from repro.lintrules.program import ALL_PROGRAM_RULES
from repro.lintrules.rules import ALL_RULES

__all__ = [
    "ALL_PROGRAM_RULES",
    "ALL_RULES",
    "SCHEMA_VERSION",
    "check_source",
    "render_human",
    "render_json",
    "run_paths",
    "suppressed_lines",
]
