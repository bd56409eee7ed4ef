"""Whole-program import graph and the package layering contract.

The per-file rules (RPR001–RPR005) see one module at a time; the
architectural invariants — "``config`` imports nothing internal",
"``device`` never reaches back up into ``xbar``", "no import cycles" —
only exist at the level of the whole package.  This module builds that
view: it walks a source tree *without importing it*, resolves every
``import``/``from ... import`` statement into module→module edges, and
classifies each edge as **top-level** (executed at import time, so it
shapes the real dependency DAG) or **lazy** (function-scoped; a
deliberate seam such as ``repro.parallel.seeding`` reaching up to
``repro.obs.log``, exempt from the layering contract and rendered
dashed in the DOT output).

The layering contract itself is a rank map over the top-level
subpackages of ``repro``: a module-level import must target a strictly
lower rank (imports inside one subpackage are free).  The ranks encode
the architecture that the tree already practises — observability is
low-level cross-cutting infrastructure (``nn`` *may* import ``obs``),
while ``experiments`` and ``__main__`` sit at the top and nothing
library-side may depend on them.  See docs/static-analysis.md for the
rendered diagram and the narrative version of the contract.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

__all__ = [
    "ImportEdge",
    "ImportGraph",
    "LAYER_RANKS",
    "LayeringContract",
    "REPRO_CONTRACT",
    "build_graph",
    "find_cycles",
    "module_name_for",
]


# ---------------------------------------------------------------------------
# The layering contract for the repro package.
# ---------------------------------------------------------------------------

LAYER_RANKS: Dict[str, int] = {
    # foundation: stdlib-only configuration
    "config": 0,
    # cross-cutting observability (log/metrics/trace); everything above
    # may use it, it only sees config
    "obs": 10,
    # runtime sanitizer: guards are called from every layer above
    "sanitize": 15,
    # mechanism packages with no physics knowledge
    "parallel": 20,
    "quant": 20,
    "cost": 20,
    # device physics (conductance windows, variation, faults)
    "device": 30,
    # the mixed-signal data path and its metrics
    "metrics": 40,
    "xbar": 40,
    "analog": 40,
    "nn": 40,
    # orchestration of the data path into full pipelines
    "core": 50,
    "workloads": 50,
    # consumers of the pipelines
    "serialization": 60,
    "analysis": 60,
    "robustness": 60,
    # the inference serving layer: loads serialized artifacts and
    # feeds request streams through the deployed data path
    "serve": 65,
    # top of the library: experiment entry points and the linter itself
    "experiments": 70,
    "lintrules": 70,
    # the application layer: package root re-exports and the CLI
    "repro": 75,
    "__main__": 80,
}
"""Rank of each top-level ``repro`` subpackage; lower = more
foundational.  Module-level imports must go strictly downward."""


@dataclass(frozen=True)
class LayeringContract:
    """Rank map plus the package root it applies to."""

    root: str
    ranks: Dict[str, int]

    def layer_of(self, module: str) -> Optional[str]:
        """The contract layer a dotted module name belongs to.

        ``repro.xbar.mna`` -> ``xbar``; the bare package root and its
        ``__main__`` are their own (application) layers; names outside
        ``root`` are not covered by the contract.
        """
        if module == self.root:
            return self.root
        prefix = self.root + "."
        if not module.startswith(prefix):
            return None
        head = module[len(prefix):].split(".", 1)[0]
        if head == "__main__":
            return "__main__"
        if head == "__init__":
            return self.root
        return head

    def violation(self, src: str, dst: str) -> Optional[str]:
        """Explain why the top-level edge ``src -> dst`` is illegal.

        Returns None for a legal edge.  Unranked layers (a future
        subpackage not yet added to the rank map) are skipped rather
        than guessed at — add the layer to ``LAYER_RANKS`` when it is
        created.
        """
        src_layer, dst_layer = self.layer_of(src), self.layer_of(dst)
        if src_layer is None or dst_layer is None or src_layer == dst_layer:
            return None
        src_rank = self.ranks.get(src_layer)
        dst_rank = self.ranks.get(dst_layer)
        if src_rank is None or dst_rank is None:
            return None
        if dst_rank > src_rank:
            return (
                f"layer `{src_layer}` (rank {src_rank}) must not import "
                f"`{dst_layer}` (rank {dst_rank}) at module scope: imports "
                "go strictly downward"
            )
        if dst_rank == src_rank:
            return (
                f"layers `{src_layer}` and `{dst_layer}` share rank "
                f"{src_rank}; peer packages must not import each other at "
                "module scope (extract shared code into a lower layer)"
            )
        return None


REPRO_CONTRACT = LayeringContract(root="repro", ranks=LAYER_RANKS)
"""The contract enforced by RPR006 on the shipped tree."""


# ---------------------------------------------------------------------------
# Graph construction.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImportEdge:
    """One resolved import statement: ``src`` imports ``dst``."""

    src: str
    dst: str
    line: int
    col: int
    lazy: bool
    """True when the import is function-scoped (a deliberate seam,
    exempt from layering and cycle checks)."""


@dataclass
class ImportGraph:
    """The module DAG of one package tree."""

    root: str
    modules: Dict[str, pathlib.Path] = field(default_factory=dict)
    edges: List[ImportEdge] = field(default_factory=list)

    def top_level_edges(self) -> List[ImportEdge]:
        return [edge for edge in self.edges if not edge.lazy]

    def adjacency(self, include_lazy: bool = False) -> Dict[str, Set[str]]:
        """module -> set of imported modules (top-level only by default)."""
        adj: Dict[str, Set[str]] = {name: set() for name in self.modules}
        for edge in self.edges:
            if edge.lazy and not include_lazy:
                continue
            adj.setdefault(edge.src, set()).add(edge.dst)
        return adj

    def package_adjacency(
        self, contract: LayeringContract, include_lazy: bool = False
    ) -> Dict[str, Set[str]]:
        """Collapsed layer -> layers graph (for rendering)."""
        adj: Dict[str, Set[str]] = {}
        for edge in self.edges:
            if edge.lazy and not include_lazy:
                continue
            src = contract.layer_of(edge.src)
            dst = contract.layer_of(edge.dst)
            if src is None or dst is None or src == dst:
                continue
            adj.setdefault(src, set()).add(dst)
        return adj

    # -- rendering ----------------------------------------------------------

    def to_dot(self, contract: Optional[LayeringContract] = None) -> str:
        """Graphviz DOT text, collapsed to the layer level when a
        contract is given (lazy edges dashed)."""
        lines = ["digraph repro {", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];']
        if contract is not None:
            solid = self.package_adjacency(contract, include_lazy=False)
            both = self.package_adjacency(contract, include_lazy=True)
            layers = sorted(
                {layer for layer in both} | {d for dsts in both.values() for d in dsts},
                key=lambda name: (contract.ranks.get(name, -1), name),
            )
            for layer in layers:
                rank = contract.ranks.get(layer)
                label = layer if rank is None else f"{layer}\\nrank {rank}"
                lines.append(f'  "{layer}" [label="{label}"];')
            for src in sorted(both):
                for dst in sorted(both[src]):
                    style = "" if dst in solid.get(src, set()) else " [style=dashed]"
                    lines.append(f'  "{src}" -> "{dst}"{style};')
        else:
            for name in sorted(self.modules):
                lines.append(f'  "{name}";')
            for edge in sorted(self.edges, key=lambda e: (e.src, e.dst, e.lazy)):
                style = " [style=dashed]" if edge.lazy else ""
                lines.append(f'  "{edge.src}" -> "{edge.dst}"{style};')
        lines.append("}")
        return "\n".join(lines)

    def to_svg(self, contract: LayeringContract) -> str:
        """Self-contained SVG of the layer graph (no graphviz needed).

        Layout: one column of boxes per rank (foundational layers at
        the bottom), straight edges, lazy edges dashed.  Deliberately
        simple — the diagram documents the contract, it is not a
        general graph renderer.
        """
        both = self.package_adjacency(contract, include_lazy=True)
        solid = self.package_adjacency(contract, include_lazy=False)
        layers = sorted(
            {layer for layer in both}
            | {d for dsts in both.values() for d in dsts}
            | set(contract.ranks),
            key=lambda name: (contract.ranks.get(name, -1), name),
        )
        by_rank: Dict[int, List[str]] = {}
        for layer in layers:
            by_rank.setdefault(contract.ranks.get(layer, -1), []).append(layer)
        ranks = sorted(by_rank)

        box_w, box_h, gap_x, gap_y, margin = 130, 34, 24, 56, 20
        max_row = max(len(row) for row in by_rank.values())
        width = margin * 2 + max_row * box_w + (max_row - 1) * gap_x
        height = margin * 2 + len(ranks) * box_h + (len(ranks) - 1) * gap_y

        centers: Dict[str, Tuple[float, float]] = {}
        boxes: List[str] = []
        for row_idx, rank in enumerate(reversed(ranks)):  # top row = highest rank
            row = by_rank[rank]
            row_w = len(row) * box_w + (len(row) - 1) * gap_x
            x0 = (width - row_w) / 2
            y = margin + row_idx * (box_h + gap_y)
            for col, layer in enumerate(row):
                x = x0 + col * (box_w + gap_x)
                centers[layer] = (x + box_w / 2, y + box_h / 2)
                boxes.append(
                    f'<rect x="{x:.0f}" y="{y:.0f}" width="{box_w}" height="{box_h}" '
                    'rx="5" fill="#eef4fb" stroke="#35506b"/>'
                    f'<text x="{x + box_w / 2:.0f}" y="{y + box_h / 2 + 4:.0f}" '
                    'text-anchor="middle" font-family="monospace" font-size="12" '
                    f'fill="#17293c">{layer}</text>'
                )
        edges_svg: List[str] = []
        for src in sorted(both):
            for dst in sorted(both[src]):
                if src not in centers or dst not in centers:
                    continue
                (x1, y1), (x2, y2) = centers[src], centers[dst]
                dashed = "" if dst in solid.get(src, set()) else ' stroke-dasharray="5,4"'
                edges_svg.append(
                    f'<line x1="{x1:.0f}" y1="{y1:.0f}" x2="{x2:.0f}" y2="{y2:.0f}" '
                    f'stroke="#8aa3bd" stroke-width="1" opacity="0.55"{dashed}/>'
                )
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
            f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">\n'
            '<!-- generated by: python -m repro lint --graph svg -->\n'
            f'<rect width="100%" height="100%" fill="white"/>\n'
            + "\n".join(edges_svg)
            + "\n"
            + "\n".join(boxes)
            + "\n</svg>\n"
        )


def module_name_for(path: pathlib.Path) -> Optional[str]:
    """Dotted module name of a source file, found from ``__init__.py``
    markers (``.../src/repro/xbar/mna.py`` -> ``repro.xbar.mna``).

    Returns None for scripts outside any package.
    """
    path = path.resolve()
    leaf = [] if path.stem == "__init__" else [path.stem]
    current = path.parent
    package_parts: List[str] = []
    while (current / "__init__.py").exists():
        package_parts.append(current.name)
        current = current.parent
    if not package_parts:
        return None
    return ".".join(list(reversed(package_parts)) + leaf)


def _resolve_relative(module: str, is_package: bool, node: ast.ImportFrom) -> Optional[str]:
    """Absolute dotted target of a relative ``from .. import x``.

    Python resolves ``level`` dots against the module's package: the
    module itself when it is a package (``__init__.py``), its parent
    otherwise; each extra dot climbs one more level.
    """
    package = module.split(".") if is_package else module.split(".")[:-1]
    climb = node.level - 1
    if climb > len(package):
        return None
    base = package[: len(package) - climb]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


def _iter_import_targets(
    module: str,
    is_package: bool,
    tree: ast.AST,
) -> Iterator[Tuple[str, int, int, bool]]:
    """Yield ``(target_module, line, col, lazy)`` for every import.

    ``from pkg import name`` yields ``pkg`` *and* ``pkg.name`` — the
    latter matters when ``name`` is itself a submodule (``from
    repro.xbar import mna``); the graph keeps whichever targets exist
    as modules and falls back to the package for attribute imports.
    An import is **lazy** when any enclosing scope is a function or an
    ``if TYPE_CHECKING:`` block (annotation-only, never executed).
    """
    lazy_spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            end = node.end_lineno if node.end_lineno is not None else node.lineno
            lazy_spans.append((node.lineno, end))
        elif isinstance(node, ast.If):
            test = node.test
            guard = (
                test.id
                if isinstance(test, ast.Name)
                else test.attr
                if isinstance(test, ast.Attribute)
                else None
            )
            if guard == "TYPE_CHECKING":
                end = node.end_lineno if node.end_lineno is not None else node.lineno
                lazy_spans.append((node.lineno, end))

    def is_lazy(line: int) -> bool:
        return any(start <= line <= end for start, end in lazy_spans)

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno, node.col_offset, is_lazy(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _resolve_relative(module, is_package, node)
            else:
                base = node.module
            if base is None:
                continue
            lazy = is_lazy(node.lineno)
            yield base, node.lineno, node.col_offset, lazy
            for alias in node.names:
                if alias.name != "*":
                    yield f"{base}.{alias.name}", node.lineno, node.col_offset, lazy


def build_graph(
    files: Iterable[Tuple[pathlib.Path, ast.AST]],
    root: Optional[str] = None,
) -> ImportGraph:
    """Build the import graph of one package tree.

    ``files`` pairs each source path with its parsed AST (the engine
    already parses every file once; reuse those trees).  ``root``
    restricts edges to modules under that package; by default it is
    inferred as the top-level package owning the majority of files.
    """
    named: List[Tuple[str, pathlib.Path, ast.AST]] = []
    for path, tree in files:
        name = module_name_for(path)
        if name is not None:
            named.append((name, path, tree))
    if root is None:
        tops = [name.split(".")[0] for name, _, _ in named]
        root = max(set(tops), key=tops.count) if tops else ""
    graph = ImportGraph(root=root)
    for name, path, _ in named:
        if name == root or name.startswith(root + "."):
            graph.modules[name] = path
    prefix = root + "."
    for name, path, tree in named:
        if not (name == root or name.startswith(prefix)):
            continue
        is_package = path.name == "__init__.py"
        seen: Set[Tuple[str, int, bool]] = set()
        for target, line, col, lazy in _iter_import_targets(name, is_package, tree):
            if not (target == root or target.startswith(prefix)):
                continue
            # collapse `from repro.xbar import mna` to the deepest
            # target that is a real module; attribute imports resolve
            # to their owning module
            resolved = target
            while resolved and resolved not in graph.modules:
                resolved = resolved.rpartition(".")[0]
            if not resolved or resolved == name:
                continue
            # `from repro.obs import metrics` inside repro.obs.openmetrics
            # touches its own package __init__ — an artifact of the
            # import machinery (tolerated at runtime), not a dependency
            if name.startswith(resolved + "."):
                continue
            key = (resolved, line, lazy)
            if key in seen:
                continue
            seen.add(key)
            graph.edges.append(
                ImportEdge(src=name, dst=resolved, line=line, col=col, lazy=lazy)
            )
    return graph


def find_cycles(graph: ImportGraph) -> List[List[str]]:
    """Cycles among top-level edges (each reported once, rotated so the
    lexicographically smallest module leads)."""
    adj = graph.adjacency(include_lazy=False)
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    sccs: List[List[str]] = []

    def strongconnect(node: str) -> None:
        # iterative Tarjan: recursion depth is unbounded on deep chains
        work = [(node, iter(sorted(adj.get(node, ()))))]
        index[node] = lowlink[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        while work:
            current, neighbours = work[-1]
            advanced = False
            for neighbour in neighbours:
                if neighbour not in adj:
                    continue
                if neighbour not in index:
                    index[neighbour] = lowlink[neighbour] = counter[0]
                    counter[0] += 1
                    stack.append(neighbour)
                    on_stack.add(neighbour)
                    work.append((neighbour, iter(sorted(adj.get(neighbour, ())))))
                    advanced = True
                    break
                if neighbour in on_stack:
                    lowlink[current] = min(lowlink[current], index[neighbour])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[current])
            if lowlink[current] == index[current]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                if len(component) > 1:
                    sccs.append(component)
                elif component and component[0] in adj.get(component[0], set()):
                    sccs.append(component)  # self-import

    for name in sorted(adj):
        if name not in index:
            strongconnect(name)
    cycles = []
    for component in sccs:
        pivot = min(component)
        idx = component.index(pivot)
        cycles.append(component[idx:] + component[:idx])
    return sorted(cycles)
