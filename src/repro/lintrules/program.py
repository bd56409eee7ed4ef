"""Whole-program rules: invariants that only exist across files.

The per-file rules in :mod:`repro.lintrules.rules` see one AST at a
time.  The rules here run once per lint invocation over a
:class:`ProgramContext` holding every parsed module plus the import
graph, and check cross-module properties:

* **RPR006** — the layering contract and import-cycle freedom of the
  package DAG (see :mod:`repro.lintrules.graph`);
* **RPR008** — the knob lifecycle: every registered ``REPRO_*`` knob
  is read somewhere, no knob is read at import time (env must be
  consultable after process start, e.g. in tests), every knob appears
  in the docs table;
* **RPR009** (program half) — metric family names never collide
  across counter/gauge/histogram and stay OpenMetrics-safe.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.lintrules.graph import (
    REPRO_CONTRACT,
    ImportGraph,
    LayeringContract,
    build_graph,
    find_cycles,
    module_name_for,
)
from repro.lintrules.rules import ImportMap

__all__ = [
    "ALL_PROGRAM_RULES",
    "ModuleFile",
    "ProgramContext",
    "ProgramRule",
    "build_context",
]

RawProgramFinding = Tuple[pathlib.Path, int, int, str]
"""(path, line, column, message) — program findings carry their file."""


@dataclass(frozen=True)
class ModuleFile:
    """One parsed module inside the program under analysis."""

    path: pathlib.Path
    module: Optional[str]
    tree: ast.AST
    imports: ImportMap


@dataclass
class ProgramContext:
    """Everything a program rule may look at."""

    files: List[ModuleFile]
    graph: ImportGraph
    contract: LayeringContract = REPRO_CONTRACT
    docs_dir: Optional[pathlib.Path] = None
    constants: Dict[str, Dict[str, str]] = field(default_factory=dict)
    """module -> {CONSTANT: "REPRO_..."} string constants assigned at
    module scope (used to resolve ``knobs.get_str(EXECUTOR_ENV)``)."""


@dataclass(frozen=True)
class ProgramRule:
    """One cross-module invariant."""

    code: str
    summary: str
    rationale: str
    check: Callable[[ProgramContext], Iterator[RawProgramFinding]]


def _module_constants(tree: ast.AST) -> Dict[str, str]:
    consts: Dict[str, str] = {}
    body = tree.body if isinstance(tree, ast.Module) else []
    for node in body:
        value = None
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        if not isinstance(value, ast.Constant) or not isinstance(value.value, str):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                consts[target.id] = value.value
    return consts


def _locate_docs(package_dir: pathlib.Path) -> Optional[pathlib.Path]:
    """Find the repository ``docs/`` directory by walking up."""
    current = package_dir.resolve()
    for _ in range(6):
        candidate = current / "docs"
        if (candidate / "observability.md").exists():
            return candidate
        if current.parent == current:
            break
        current = current.parent
    return None


def build_context(
    files: List[Tuple[pathlib.Path, str, ast.AST]],
    contract: LayeringContract = REPRO_CONTRACT,
) -> ProgramContext:
    """Assemble the program view from parsed (path, source, tree) files."""
    modules: List[ModuleFile] = []
    constants: Dict[str, Dict[str, str]] = {}
    for path, _, tree in files:
        name = module_name_for(path)
        modules.append(ModuleFile(path=path, module=name, tree=tree, imports=ImportMap(tree)))
        if name is not None:
            constants[name] = _module_constants(tree)
    graph = build_graph([(m.path, m.tree) for m in modules])
    package_dirs = [m.path.parent for m in modules if m.module == graph.root]
    docs_dir = _locate_docs(package_dirs[0]) if package_dirs else None
    if docs_dir is None and modules:
        docs_dir = _locate_docs(modules[0].path.parent)
    return ProgramContext(
        files=modules, graph=graph, contract=contract, docs_dir=docs_dir, constants=constants
    )


# ---------------------------------------------------------------------------
# RPR006 — layering contract + cycle freedom
# ---------------------------------------------------------------------------


def _check_rpr006(ctx: ProgramContext) -> Iterator[RawProgramFinding]:
    paths = dict(ctx.graph.modules)
    seen: Set[Tuple[str, int, Optional[str]]] = set()
    for edge in ctx.graph.top_level_edges():
        reason = ctx.contract.violation(edge.src, edge.dst)
        if reason is None:
            continue
        path = paths.get(edge.src)
        if path is None:
            continue
        # one import statement reaches both `pkg` and `pkg.sub`; report
        # the offending layer once per line
        key = (edge.src, edge.line, ctx.contract.layer_of(edge.dst))
        if key in seen:
            continue
        seen.add(key)
        yield (
            path,
            edge.line,
            edge.col,
            f"{reason} (moving the import inside the function that needs it "
            "makes the seam explicit and exempt)",
        )
    for cycle in find_cycles(ctx.graph):
        head = cycle[0]
        path = paths.get(head)
        if path is None:
            continue
        chain = " -> ".join(cycle + [head])
        yield (
            path,
            1,
            0,
            f"import cycle at module scope: {chain}; break it with a lazy "
            "(function-scoped) import or by extracting the shared piece "
            "downward",
        )


# ---------------------------------------------------------------------------
# RPR008 — knob lifecycle
# ---------------------------------------------------------------------------

_KNOB_ACCESSORS = frozenset(
    {"get_raw", "get_str", "get_bool", "get_int", "get_float", "get_path", "knob"}
)
_KNOBS_MODULE_SUFFIX = ".config.knobs"


def _function_spans(tree: ast.AST) -> List[Tuple[int, int]]:
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            end = node.end_lineno if node.end_lineno is not None else node.lineno
            spans.append((node.lineno, end))
    return spans


def _resolve_knob_name(
    node: ast.expr, mod: ModuleFile, ctx: ProgramContext
) -> Optional[str]:
    """Literal or constant-resolved knob name at a call site."""
    if isinstance(node, ast.Constant):
        return node.value if isinstance(node.value, str) else None
    if isinstance(node, ast.Name) and mod.module is not None:
        local = ctx.constants.get(mod.module, {}).get(node.id)
        if local is not None:
            return local
    qualified = mod.imports.qualify(node)
    if qualified and "." in qualified:
        owner, attr = qualified.rsplit(".", 1)
        return ctx.constants.get(owner, {}).get(attr)
    return None


def _check_rpr008(ctx: ProgramContext) -> Iterator[RawProgramFinding]:
    registered: Dict[str, Tuple[pathlib.Path, int, int]] = {}
    reads: Dict[str, List[Tuple[pathlib.Path, int, int]]] = {}
    import_time_reads: List[Tuple[pathlib.Path, int, int, str]] = []

    for mod in ctx.files:
        in_registry = mod.module is not None and mod.module.endswith(_KNOBS_MODULE_SUFFIX)
        in_config = mod.module is not None and ".config." in mod.module + "."
        spans = None
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = mod.imports.qualify(node.func) or ""
            # register("REPRO_X", ...) — bare call inside the registry
            # module, qualified elsewhere
            is_register = (in_registry and qualified == "register") or qualified.endswith(
                _KNOBS_MODULE_SUFFIX + ".register"
            )
            if is_register and node.args:
                name = node.args[0]
                if isinstance(name, ast.Constant) and isinstance(name.value, str):
                    registered.setdefault(
                        name.value, (mod.path, node.lineno, node.col_offset)
                    )
                continue
            accessor = qualified.rsplit(".", 1)[-1]
            owner = qualified.rsplit(".", 1)[0] if "." in qualified else ""
            if accessor not in _KNOB_ACCESSORS or not owner.endswith(_KNOBS_MODULE_SUFFIX):
                continue
            if not node.args:
                continue
            name_value = _resolve_knob_name(node.args[0], mod, ctx)
            if name_value is None:
                continue
            site = (mod.path, node.lineno, node.col_offset)
            reads.setdefault(name_value, []).append(site)
            if not in_config:
                if spans is None:
                    spans = _function_spans(mod.tree)
                if not any(start <= node.lineno <= end for start, end in spans):
                    import_time_reads.append((*site, name_value))

    for name, (path, line, col) in sorted(registered.items()):
        if name not in reads:
            yield (
                path,
                line,
                col,
                f"knob {name} is registered but never read through the typed "
                "accessors; delete the registration or wire the consumer",
            )
    for name, sites in sorted(reads.items()):
        if registered and name not in registered:
            for path, line, col in sites:
                yield (
                    path,
                    line,
                    col,
                    f"knob {name} is read but never registered in "
                    "repro.config.knobs — reads of undeclared knobs raise "
                    "UnknownKnobError at runtime",
                )
    for path, line, col, name in import_time_reads:
        yield (
            path,
            line,
            col,
            f"knob {name} is read at import time; resolve it lazily (first "
            "use) so tests and callers can set the environment after import",
        )
    if ctx.docs_dir is not None and registered:
        docs = ctx.docs_dir / "observability.md"
        text = docs.read_text(encoding="utf-8") if docs.exists() else ""
        for name, (path, line, col) in sorted(registered.items()):
            if f"`{name}`" not in text:
                yield (
                    path,
                    line,
                    col,
                    f"knob {name} is missing from the docs table in "
                    f"{docs.name}; regenerate it with "
                    "repro.config.knobs.docs_table()",
                )


# ---------------------------------------------------------------------------
# RPR009 (program half) — metric family collisions / unsafe names
# ---------------------------------------------------------------------------

_METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})
_METRIC_NAME = re.compile(r"^[a-z][a-z0-9_]*$")


def _check_rpr009_program(ctx: ProgramContext) -> Iterator[RawProgramFinding]:
    families: Dict[str, Dict[str, List[Tuple[pathlib.Path, int, int]]]] = {}
    for mod in ctx.files:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            qualified = mod.imports.qualify(node.func) or ""
            factory = qualified.rsplit(".", 1)[-1]
            owner = qualified.rsplit(".", 1)[0] if "." in qualified else ""
            if factory not in _METRIC_FACTORIES or not owner.endswith(".obs.metrics"):
                continue
            name = node.args[0]
            if not isinstance(name, ast.Constant) or not isinstance(name.value, str):
                continue
            site = (mod.path, node.lineno, node.col_offset)
            families.setdefault(name.value, {}).setdefault(factory, []).append(site)
            if not _METRIC_NAME.match(name.value):
                yield (
                    *site,
                    f"metric name {name.value!r} is not OpenMetrics-safe; use "
                    "lowercase snake_case matching [a-z][a-z0-9_]*",
                )
    for name, by_family in sorted(families.items()):
        if len(by_family) < 2:
            continue
        kinds = "/".join(sorted(by_family))
        for sites in by_family.values():
            for path, line, col in sites:
                yield (
                    path,
                    line,
                    col,
                    f"metric name {name!r} is registered as {kinds}: the "
                    "registry and the OpenMetrics exposition require one "
                    "family per name",
                )


ALL_PROGRAM_RULES: Tuple[ProgramRule, ...] = (
    ProgramRule(
        code="RPR006",
        summary="the package DAG honours the layering contract and has no cycles",
        rationale=(
            "The sim/phys backend seam and non-ideality-aware deployment both "
            "assume machine-checked domain boundaries; an upward import turns "
            "the layer diagram into fiction and cycles break partial imports."
        ),
        check=_check_rpr006,
    ),
    ProgramRule(
        code="RPR008",
        summary=(
            "knob lifecycle: registered knobs are read (lazily) and documented"
        ),
        rationale=(
            "A knob that is registered but dead, undocumented, or frozen at "
            "import time silently stops steering the pipeline — the registry "
            "is only trustworthy if its whole lifecycle is checked."
        ),
        check=_check_rpr008,
    ),
    ProgramRule(
        code="RPR009",
        summary="metric family names are collision-free and OpenMetrics-safe",
        rationale=(
            "Two families under one name merge into a corrupt exposition "
            "series; the registry enforces this at runtime, the lint catches "
            "it before the process ever starts."
        ),
        check=_check_rpr009_program,
    ),
)
