"""The RPR rule implementations: small AST visitors over one module.

Each rule is a :class:`Rule` with a stable code, a one-line summary
(rendered in ``--list-rules`` and the docs) and a ``check`` hook that
yields :class:`~repro.lintrules.engine.Finding`-shaped tuples.  Name
resolution goes through :class:`ImportMap`, which rewrites local
aliases (``import numpy as np``, ``from numpy.random import
default_rng as rng_factory``) into fully qualified dotted names, so
the rules are robust to import spelling.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["ALL_RULES", "HOT_PATH_PACKAGES", "ImportMap", "RawFinding", "Rule", "rule_catalogue"]

RawFinding = Tuple[int, int, str]
"""(line, column, message) produced by a rule before engine wrapping."""


@dataclass(frozen=True)
class Rule:
    """One named invariant.

    ``check(tree, import_map, is_library)`` yields raw findings; the
    engine attaches path/rule metadata and applies suppressions.
    ``applies`` optionally gates the rule on the file path (e.g.
    RPR007 only checks the hot-path packages); None = every file.
    """

    code: str
    summary: str
    rationale: str
    check: Callable[[ast.AST, "ImportMap", bool], Iterator[RawFinding]]
    applies: Optional[Callable[[pathlib.Path], bool]] = None


class ImportMap:
    """Resolves local names to fully qualified dotted module paths."""

    def __init__(self, tree: ast.AST) -> None:
        self._aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self._aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self._aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def qualify(self, node: ast.AST) -> Optional[str]:
        """Dotted qualified name of a Name/Attribute chain, or None."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self._aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


def _canonical(qualified: Optional[str]) -> Optional[str]:
    """Collapse the ``np``/``numpy`` split: report numpy paths uniformly."""
    if qualified is None:
        return None
    if qualified == "np" or qualified.startswith("np."):
        return "numpy" + qualified[2:]
    return qualified


# ---------------------------------------------------------------------------
# RPR001 — unseeded generator construction
# ---------------------------------------------------------------------------

def _check_rpr001(tree: ast.AST, imports: ImportMap, is_library: bool) -> Iterator[RawFinding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _canonical(imports.qualify(node.func))
        if name == "numpy.random.default_rng" and not node.args and not node.keywords:
            yield (
                node.lineno,
                node.col_offset,
                "unseeded np.random.default_rng() breaks replayability; thread an "
                "explicit rng/seed or use repro.parallel.seeding.fresh_rng(), which "
                "logs the seed it draws",
            )
        elif name == "numpy.random.Generator":
            yield (
                node.lineno,
                node.col_offset,
                "direct np.random.Generator() construction bypasses the seeding "
                "discipline; build generators with default_rng(seed), ensure_rng() "
                "or fresh_rng()",
            )


# ---------------------------------------------------------------------------
# RPR002 — legacy global RNG state
# ---------------------------------------------------------------------------

_MODERN_NUMPY_RANDOM = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)


def _check_rpr002(tree: ast.AST, imports: ImportMap, is_library: bool) -> Iterator[RawFinding]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None)
            for alias in node.names:
                target = alias.name if isinstance(node, ast.Import) else f"{module}.{alias.name}"
                if target == "random" or target.startswith("random."):
                    yield (
                        node.lineno,
                        node.col_offset,
                        "stdlib `random` carries hidden global state; use a threaded "
                        "numpy Generator instead",
                    )
                elif (
                    isinstance(node, ast.ImportFrom)
                    and module in ("numpy.random", "np.random")
                    and alias.name not in _MODERN_NUMPY_RANDOM
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"legacy numpy.random.{alias.name} mutates global RNG state; "
                        "use Generator methods on a threaded rng",
                    )
        elif isinstance(node, ast.Attribute):
            name = _canonical(imports.qualify(node))
            if (
                name is not None
                and name.startswith("numpy.random.")
                and name.count(".") == 2
                and name.rsplit(".", 1)[1] not in _MODERN_NUMPY_RANDOM
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"legacy global-state API {name} is forbidden; draw from a "
                    "threaded np.random.Generator",
                )


# ---------------------------------------------------------------------------
# RPR003 — environment access outside the knob registry
# ---------------------------------------------------------------------------

def _check_rpr003(tree: ast.AST, imports: ImportMap, is_library: bool) -> Iterator[RawFinding]:
    message = (
        "read configuration through the repro.config.knobs registry, not "
        "os.environ/os.getenv — undeclared knobs must fail loudly and appear "
        "in the docs table"
    )
    reported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = _canonical(imports.qualify(node))
            if name in ("os.environ", "os.getenv", "os.putenv", "os.environb"):
                key = (node.lineno, node.col_offset)
                if key not in reported:
                    reported.add(key)
                    yield (node.lineno, node.col_offset, message)


# ---------------------------------------------------------------------------
# RPR004 — stdout writes in library modules
# ---------------------------------------------------------------------------

def _check_rpr004(tree: ast.AST, imports: ImportMap, is_library: bool) -> Iterator[RawFinding]:
    if not is_library:
        return
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            # print(..., file=sys.stderr) is a legitimate diagnostic
            # escape hatch; only bare/stdout prints are findings.
            stream = next((kw.value for kw in node.keywords if kw.arg == "file"), None)
            stream_name = _canonical(imports.qualify(stream)) if stream is not None else None
            if stream is None or stream_name == "sys.stdout":
                yield (
                    node.lineno,
                    node.col_offset,
                    "print() in library code corrupts the stdout table contract; "
                    "emit diagnostics via repro.obs.log (stdout belongs to __main__)",
                )
        elif isinstance(node, ast.Attribute):
            name = _canonical(imports.qualify(node))
            if name == "sys.stdout":
                yield (
                    node.lineno,
                    node.col_offset,
                    "sys.stdout is reserved for result tables printed by __main__; "
                    "route library output through repro.obs.log or return strings",
                )


# ---------------------------------------------------------------------------
# RPR005 — hand-rolled rng normalization
# ---------------------------------------------------------------------------

def _is_generator_isinstance(call: ast.AST, imports: ImportMap) -> bool:
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "isinstance"
        and len(call.args) == 2
        and _canonical(imports.qualify(call.args[1])) == "numpy.random.Generator"
    )


def _check_rpr005(tree: ast.AST, imports: ImportMap, is_library: bool) -> Iterator[RawFinding]:
    message = (
        "hand-rolled rng normalization duplicates repro.parallel.seeding."
        "ensure_rng(); call the shared helper so None-handling stays logged "
        "and consistent"
    )
    for node in ast.walk(tree):
        # if not isinstance(x, np.random.Generator): x = default_rng(x)
        if isinstance(node, ast.If):
            test = node.test
            if (
                isinstance(test, ast.UnaryOp)
                and isinstance(test.op, ast.Not)
                and _is_generator_isinstance(test.operand, imports)
            ):
                yield (node.lineno, node.col_offset, message)
        # x = y if isinstance(y, np.random.Generator) else default_rng(y)
        elif isinstance(node, ast.IfExp) and _is_generator_isinstance(node.test, imports):
            yield (node.lineno, node.col_offset, message)


# ---------------------------------------------------------------------------
# RPR007 — raw float dtype literals in hot-path packages
# ---------------------------------------------------------------------------

HOT_PATH_PACKAGES = frozenset({"nn", "xbar", "quant", "analog"})
"""Subpackages whose array allocations must honour ``REPRO_DTYPE``
via ``repro.config.dtype.astype`` (the deterministic data path)."""

_FLOAT_DTYPE_STRINGS = frozenset({"float", "float64", "float32"})


def _is_hot_path(path: pathlib.Path) -> bool:
    parts = path.parts
    for idx, part in enumerate(parts):
        if part == "repro" and idx + 1 < len(parts) and parts[idx + 1] in HOT_PATH_PACKAGES:
            return True
    # bare fixture paths like "xbar/foo.py"
    return bool(parts) and parts[0] in HOT_PATH_PACKAGES


def _is_float_dtype_literal(node: ast.AST, imports: ImportMap) -> bool:
    if isinstance(node, ast.Constant) and node.value in _FLOAT_DTYPE_STRINGS:
        return True
    if isinstance(node, ast.Name) and node.id == "float":
        return True
    qualified = _canonical(imports.qualify(node))
    return qualified in ("numpy.float64", "numpy.float32")


def _check_rpr007(tree: ast.AST, imports: ImportMap, is_library: bool) -> Iterator[RawFinding]:
    message = (
        "raw float dtype literal bypasses REPRO_DTYPE; allocate through "
        "repro.config.dtype.astype() so the float32 data path stays honest"
    )
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for keyword in node.keywords:
            if keyword.arg == "dtype" and _is_float_dtype_literal(keyword.value, imports):
                # anchor at the call so one end-of-line suppression
                # covers a multi-line call too
                yield (node.lineno, node.col_offset, message)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and len(node.args) == 1
            and _is_float_dtype_literal(node.args[0], imports)
        ):
            yield (node.lineno, node.col_offset, message)


# ---------------------------------------------------------------------------
# RPR009 (per-file half) — metric objects constructed outside the registry
# ---------------------------------------------------------------------------

_METRIC_CLASSES = frozenset(
    {
        "repro.obs.metrics.Counter",
        "repro.obs.metrics.Gauge",
        "repro.obs.metrics.Histogram",
        "repro.obs.metrics.MetricsRegistry",
    }
)


def _check_rpr009(tree: ast.AST, imports: ImportMap, is_library: bool) -> Iterator[RawFinding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _canonical(imports.qualify(node.func))
        if name in _METRIC_CLASSES:
            short = name.rsplit(".", 1)[1]
            yield (
                node.lineno,
                node.col_offset,
                f"direct {short}() construction bypasses the process-wide "
                "registry (snapshot/merge, OpenMetrics exposition); use the "
                "counter()/gauge()/histogram() factories in repro.obs.metrics",
            )


def _not_metrics_module(path: pathlib.Path) -> bool:
    return path.name != "metrics.py" or "obs" not in path.parts


# ---------------------------------------------------------------------------
# RPR010 — executors / SHM arenas used without context management
# ---------------------------------------------------------------------------

_MANAGED_RESOURCES = {
    "repro.parallel.shm.ShmSession": "ShmSession",
    "concurrent.futures.ThreadPoolExecutor": "ThreadPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor": "ProcessPoolExecutor",
    "multiprocessing.shared_memory.SharedMemory": "SharedMemory",
}


def _managed_context_calls(tree: ast.AST) -> frozenset:
    """Call nodes that are `with` items or fed to enter_context()."""
    managed = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                managed.add(id(item.context_expr))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "enter_context"
            and node.args
        ):
            managed.add(id(node.args[0]))
    return frozenset(managed)


def _check_rpr010(tree: ast.AST, imports: ImportMap, is_library: bool) -> Iterator[RawFinding]:
    managed = _managed_context_calls(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in managed:
            continue
        name = _canonical(imports.qualify(node.func))
        short = _MANAGED_RESOURCES.get(name or "")
        if short is not None:
            yield (
                node.lineno,
                node.col_offset,
                f"{short}(...) outside a `with` block leaks segments/threads "
                "on the error path; context-manage it (or enter_context on an "
                "ExitStack) so teardown is exception-safe",
            )


# ---------------------------------------------------------------------------
# RPR011 — spans opened without `with`
# ---------------------------------------------------------------------------


def _check_rpr011(tree: ast.AST, imports: ImportMap, is_library: bool) -> Iterator[RawFinding]:
    managed = _managed_context_calls(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in managed:
            continue
        name = _canonical(imports.qualify(node.func))
        if name == "repro.obs.trace.span":
            yield (
                node.lineno,
                node.col_offset,
                "span(...) called without `with` never closes: the timing "
                "never reaches the run manifest's span tree and the span "
                "stack corrupts; use `with span(...):`",
            )


def _not_trace_module(path: pathlib.Path) -> bool:
    return path.name != "trace.py" or "obs" not in path.parts


ALL_RULES: Tuple[Rule, ...] = (
    Rule(
        code="RPR001",
        summary="no unseeded np.random.default_rng()/Generator() in library code",
        rationale=(
            "Every accuracy number rests on Monte-Carlo draws; an unseeded "
            "generator makes the run unreplayable and silently voids the "
            "serial/parallel equivalence guarantee."
        ),
        check=_check_rpr001,
    ),
    Rule(
        code="RPR002",
        summary="no legacy global RNG state (np.random.* module functions, stdlib random)",
        rationale=(
            "Global RNG state is shared across threads and call sites, so one "
            "stray draw reorders every stream after it."
        ),
        check=_check_rpr002,
    ),
    Rule(
        code="RPR003",
        summary="environment knobs are read via repro.config.knobs, never os.environ",
        rationale=(
            "A central registry keeps the knob set discoverable, typed, "
            "documented, and snapshot-complete in run manifests."
        ),
        check=_check_rpr003,
    ),
    Rule(
        code="RPR004",
        summary="no print()/sys.stdout in library modules",
        rationale=(
            "stdout is the machine-readable artifact channel (tables); "
            "diagnostics belong on stderr via repro.obs.log."
        ),
        check=_check_rpr004,
    ),
    Rule(
        code="RPR005",
        summary=(
            "rng arguments are normalized with seeding.ensure_rng(), "
            "not ad-hoc isinstance blocks"
        ),
        rationale=(
            "Copy-pasted normalization blocks drift (some logged, some not); "
            "one helper keeps None-handling replayable everywhere."
        ),
        check=_check_rpr005,
    ),
    Rule(
        code="RPR007",
        summary=(
            "hot-path packages (nn/xbar/quant/analog) allocate through "
            "repro.config.dtype.astype, not raw float dtype literals"
        ),
        rationale=(
            "REPRO_DTYPE=float32 halves memory traffic only if every "
            "allocation honours it; one stray dtype=float silently promotes "
            "the whole downstream pipeline back to float64."
        ),
        check=_check_rpr007,
        applies=_is_hot_path,
    ),
    Rule(
        code="RPR009",
        summary="metric objects come from the counter()/gauge()/histogram() factories",
        rationale=(
            "Metrics constructed outside the registry are invisible to "
            "snapshot/diff/merge and the OpenMetrics endpoint, so their "
            "numbers silently vanish from worker processes and scrapes."
        ),
        check=_check_rpr009,
        applies=_not_metrics_module,
    ),
    Rule(
        code="RPR010",
        summary="executors and SHM arenas are context-managed",
        rationale=(
            "A ShmSession or pool torn down by hand leaks POSIX segments and "
            "worker processes when the sweep raises; `with` makes teardown "
            "exception-safe."
        ),
        check=_check_rpr010,
    ),
    Rule(
        code="RPR011",
        summary="trace spans are opened with `with span(...)`",
        rationale=(
            "An unclosed span corrupts the span stack and drops its timing "
            "from the run manifest's span tree."
        ),
        check=_check_rpr011,
        applies=_not_trace_module,
    ),
)


def rule_catalogue(rules: Optional[Tuple] = None) -> str:
    """Human-readable rule listing for ``--list-rules``.

    Accepts any sequence of objects carrying ``code``/``summary``/
    ``rationale`` (per-file Rules and ProgramRules alike); defaults to
    the per-file set.
    """
    listed = list(ALL_RULES) if rules is None else list(rules)
    listed.sort(key=lambda rule: rule.code)
    lines = []
    for rule in listed:
        lines.append(f"{rule.code}  {rule.summary}")
        lines.append(f"        {rule.rationale}")
    return "\n".join(lines)
