"""Registry of every ``REPRO_*`` environment knob the pipeline reads.

The reproduction is steered by a small set of environment variables
(``REPRO_WORKERS``, ``REPRO_LOG``, ...).  Before this module existed
they were read at nine scattered ``os.environ`` call sites, which made
the set undiscoverable and let typos fail silently.  Now:

* every knob is **declared** here exactly once (name, type, default,
  documentation);
* every **read** goes through the typed accessors below — reading an
  undeclared knob raises :class:`UnknownKnobError` immediately;
* the docs table (``docs/observability.md``) is rendered from the same
  registry by :func:`docs_table`, and a test asserts the two agree.

``repro-lint`` rule RPR003 forbids direct ``os.environ`` access in
library code, so this module is the single place the process
environment is consulted (the two suppressed lines below).

This module is stdlib-only and must not import any other ``repro``
package: it sits below :mod:`repro.obs` in the layering.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "TRUTHY",
    "Knob",
    "UnknownKnobError",
    "all_knobs",
    "docs_table",
    "get_bool",
    "get_float",
    "get_int",
    "get_path",
    "get_raw",
    "get_str",
    "knob",
    "snapshot",
    "unregistered",
]

TRUTHY = frozenset({"1", "true", "yes", "on"})
"""Accepted spellings for an enabled boolean knob (case-insensitive)."""

KNOB_PREFIX = "REPRO_"


class UnknownKnobError(KeyError):
    """Raised when code reads a knob that was never registered."""

    def __init__(self, name: str) -> None:
        registered = ", ".join(sorted(_REGISTRY))
        super().__init__(
            f"unknown knob {name!r}; registered knobs: {registered}. "
            "Declare new knobs in repro.config.knobs before reading them."
        )
        self.name = name


@dataclass(frozen=True)
class Knob:
    """Declaration of one environment knob.

    Parameters
    ----------
    name:
        The environment variable, must start with ``REPRO_``.
    kind:
        Semantic type rendered in the docs table: ``str`` / ``int`` /
        ``bool`` / ``path`` / ``enum`` / ``level``.
    default:
        Human-readable default used when the variable is unset or
        empty (``None`` = no default; accessors return ``None``).
    description:
        One-line documentation rendered into the knob table.
    choices:
        Legal values for ``enum`` knobs (informational).
    """

    name: str
    kind: str
    default: Optional[str]
    description: str
    choices: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name.startswith(KNOB_PREFIX):
            raise ValueError(f"knob names must start with {KNOB_PREFIX!r}, got {self.name!r}")
        if self.kind not in ("str", "int", "float", "bool", "path", "enum", "level"):
            raise ValueError(f"unknown knob kind {self.kind!r} for {self.name}")
        if not self.description:
            raise ValueError(f"knob {self.name} needs a description")


_REGISTRY: Dict[str, Knob] = {}


def register(
    name: str,
    kind: str,
    default: Optional[str],
    description: str,
    choices: Tuple[str, ...] = (),
) -> Knob:
    """Declare a knob; idempotent only for identical declarations."""
    declared = Knob(name=name, kind=kind, default=default,
                    description=description, choices=choices)
    existing = _REGISTRY.get(name)
    if existing is not None and existing != declared:
        raise ValueError(f"conflicting re-registration of knob {name}")
    _REGISTRY[name] = declared
    return declared


def knob(name: str) -> Knob:
    """The declaration for one registered knob."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownKnobError(name) from None


def all_knobs() -> List[Knob]:
    """Every registered knob, sorted by name (docs/table order)."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


# ---------------------------------------------------------------------------
# Typed accessors.  All of them raise UnknownKnobError for undeclared
# names; the two os.environ touches below are the only ones allowed in
# library code (enforced by repro-lint RPR003).
# ---------------------------------------------------------------------------


def get_raw(name: str) -> Optional[str]:
    """The raw environment value, or ``None`` when unset.

    Does *not* apply the registered default — callers that need
    unset/empty discrimination (e.g. the worker-count parser, which
    warns on junk) use this and handle fallback themselves.
    """
    declared = knob(name)
    return os.environ.get(declared.name)  # repro-lint: disable=RPR003


def get_str(name: str) -> Optional[str]:
    """Stripped string value, falling back to the registered default."""
    raw = get_raw(name)
    if raw is None or not raw.strip():
        return knob(name).default
    return raw.strip()


def get_bool(name: str) -> bool:
    """Boolean value: any spelling in :data:`TRUTHY` counts as on."""
    raw = get_raw(name)
    if raw is None or not raw.strip():
        default = knob(name).default
        raw = default if default is not None else ""
    return raw.strip().lower() in TRUTHY


def get_int(name: str) -> Optional[int]:
    """Integer value; raises :class:`ValueError` on a non-integer.

    Returns the registered default (coerced) when unset/empty, or
    ``None`` when there is no default either.
    """
    raw = get_str(name)
    if raw is None:
        return None
    return int(raw)


def get_float(name: str) -> Optional[float]:
    """Float value; raises :class:`ValueError` on a non-number.

    Returns the registered default (coerced) when unset/empty, or
    ``None`` when there is no default either.
    """
    raw = get_str(name)
    if raw is None:
        return None
    return float(raw)


def get_path(name: str) -> Optional[str]:
    """Path-valued knob; empty/unset falls back to the default."""
    return get_str(name)


def snapshot() -> Dict[str, str]:
    """All ``REPRO_*`` variables currently set (registered or not).

    Provenance capture for run manifests — records exactly what the
    process saw, including stray unregistered variables (which
    :func:`unregistered` surfaces so tests can reject them).
    """
    items = sorted(os.environ.items())  # repro-lint: disable=RPR003
    return {k: v for k, v in items if k.startswith(KNOB_PREFIX)}


def unregistered() -> List[str]:
    """``REPRO_*`` variables set in the environment but never declared."""
    return [name for name in snapshot() if name not in _REGISTRY]


def docs_table() -> str:
    """The knob reference as a markdown table (rendered into the docs)."""
    rows = [
        "| Knob | Type | Default | Description |",
        "| --- | --- | --- | --- |",
    ]
    for declared in all_knobs():
        default = "(unset)" if declared.default is None else f"`{declared.default}`"
        kind = declared.kind
        if declared.choices:
            kind = f"{kind}: {' / '.join(declared.choices)}"
        rows.append(f"| `{declared.name}` | {kind} | {default} | {declared.description} |")
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# The knob catalogue.  Declarations live here (not in the owning
# modules) so the full set is readable in one screen; the owning
# modules re-export their names as *_ENV constants.
# ---------------------------------------------------------------------------

register(
    "REPRO_LOG",
    "level",
    None,
    "Diagnostic log level on stderr (`debug`/`info`/`warning`/`error` or a "
    "numeric level). Library default `warning`; the CLI defaults to `info`.",
)
register(
    "REPRO_LOG_JSON",
    "path",
    None,
    "File additionally receiving every log record as one JSON object per line.",
)
register(
    "REPRO_RUN_DIR",
    "path",
    "runs",
    "Directory receiving run manifests (`<timestamp>-<experiment>.json`).",
)
register(
    "REPRO_HISTORY",
    "path",
    "runs/history.jsonl",
    "Append-only JSONL store of benchmark-trajectory entries.",
)
register(
    "REPRO_WORKERS",
    "int",
    "1",
    "Default worker count for parallel sweeps; non-integers warn and fall back to serial.",
)
register(
    "REPRO_EXECUTOR",
    "enum",
    "process",
    "Executor kind used when more than one worker is requested.",
    choices=("serial", "thread", "process"),
)
register(
    "REPRO_FULL",
    "bool",
    "0",
    "Run experiments at the paper-scale budgets instead of the quick ones "
    "(the default of the CLI's `--scale`).",
)
register(
    "REPRO_DTYPE",
    "enum",
    "float64",
    "Floating dtype of the deterministic data path (nn / xbar / quant). "
    "`float32` halves memory traffic (its accuracy cost is not yet measured "
    "per benchmark); float64 keeps every equivalence test bit-exact.",
    choices=("float64", "float32"),
)
register(
    "REPRO_SHM",
    "bool",
    "0",
    "Ship large arrays to process-pool workers via POSIX shared memory "
    "(zero-copy views) instead of pickling them into every task.",
)
register(
    "REPRO_TASK_TIMEOUT",
    "float",
    None,
    "Resilient-map stall timeout in seconds: if no task completes within this "
    "window the pool is declared hung, rebuilt, and the unfinished tasks "
    "resubmitted. Unset = wait forever.",
)
register(
    "REPRO_ERRORBUDGET_TRIALS",
    "int",
    None,
    "Monte-Carlo trials per error-budget variant (`python -m repro "
    "errorbudget`). Unset = the scale's noise-trial budget; the CLI "
    "`--trials` flag overrides both.",
)
register(
    "REPRO_TASK_RETRIES",
    "int",
    "2",
    "Re-execution budget per task in a resilient map before it degrades to "
    "the in-parent serial fallback.",
)
register(
    "REPRO_SERVE_MAX_BATCH",
    "int",
    "64",
    "Serving micro-batcher: maximum total samples fused into one "
    "`forward_trials` call. Each batch takes the requests already queued, "
    "up to this cap, the moment the evaluator is free; it never waits for "
    "more.",
)
register(
    "REPRO_SERVE_QUEUE_LIMIT",
    "int",
    "256",
    "Serving overload shed: requests queued beyond this limit are rejected "
    "immediately (HTTP 503) instead of growing the queue without bound.",
)
register(
    "REPRO_SERVE_DEADLINE_MS",
    "float",
    None,
    "Serving per-request deadline in milliseconds: requests still queued "
    "past it are failed (HTTP 504) rather than served stale. Unset = no "
    "deadline.",
)
register(
    "REPRO_SERVE_PORT",
    "int",
    "9600",
    "TCP port of the inference service (`python -m repro serve`); `0` picks "
    "a free ephemeral port.",
)
register(
    "REPRO_SANITIZE",
    "bool",
    "0",
    "Arm the runtime sanitizer (`repro.sanitize`): NaN/Inf guards on the "
    "trainer and the DAC->crossbar->ADC path, physical-range checks on "
    "programmed conductances, read-only enforcement on SHM-fanned arrays "
    "and a shared-Generator race detector. Findings surface on the "
    "`sanitize_findings` counter and the structured log.",
)
