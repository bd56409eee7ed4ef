"""API quality gates: docstrings, __all__ consistency, examples compile.

These tests keep the library releasable: every public item documented,
every advertised name importable, every example at least syntactically
sound.
"""

import ast
import importlib
import inspect
import pathlib
import py_compile
import re

import pytest

PACKAGES = [
    "repro",
    "repro.nn",
    "repro.device",
    "repro.xbar",
    "repro.cost",
    "repro.workloads",
    "repro.core",
    "repro.metrics",
    "repro.serialization",
]

MODULES = [
    "repro.quant.fixedpoint",
    "repro.quant.binarray",
    "repro.nn.activations",
    "repro.nn.layers",
    "repro.nn.losses",
    "repro.nn.network",
    "repro.nn.optimizers",
    "repro.nn.trainer",
    "repro.nn.datasets",
    "repro.device.rram",
    "repro.device.variation",
    "repro.device.programming",
    "repro.device.faults",
    "repro.xbar.crossbar",
    "repro.xbar.mapping",
    "repro.xbar.mna",
    "repro.xbar.ir_drop",
    "repro.xbar.compensation",
    "repro.xbar.tiling",
    "repro.analog.converters",
    "repro.analog.periphery",
    "repro.cost.params",
    "repro.cost.area",
    "repro.cost.power",
    "repro.cost.breakdown",
    "repro.cost.calibration",
    "repro.cost.timing",
    "repro.workloads.base",
    "repro.workloads.fft",
    "repro.workloads.inversek2j",
    "repro.workloads.jmeint",
    "repro.workloads.jpeg",
    "repro.workloads.kmeans",
    "repro.workloads.sobel",
    "repro.workloads.expfit",
    "repro.workloads.registry",
    "repro.core.deploy",
    "repro.core.rcs",
    "repro.core.mei",
    "repro.core.saab",
    "repro.core.pruning",
    "repro.core.dse",
    "repro.core.tradeoff",
    "repro.core.calibration",
    "repro.metrics.error",
    "repro.metrics.image",
    "repro.metrics.robustness",
    "repro.core.runner",
    "repro.experiments.fig2",
    "repro.experiments.fig3",
    "repro.experiments.table1",
    "repro.experiments.fig4",
    "repro.experiments.fig5",
    "repro.experiments.bitlength",
    "repro.serialization",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    """Every name in __all__ must actually exist."""
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} does not declare __all__"
    for item in exported:
        assert hasattr(module, item), f"{name}.__all__ lists missing {item!r}"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    """Public classes and functions defined in the module have docstrings."""
    module = importlib.import_module(name)
    for attr_name in getattr(module, "__all__", []):
        obj = getattr(module, attr_name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", None) != name:
                continue  # re-exported constant/class
            assert obj.__doc__ and obj.__doc__.strip(), (
                f"{name}.{attr_name} lacks a docstring"
            )


SRC = pathlib.Path("src")
CALLER_ROOTS = ("src", "tests", "benchmarks", "examples", "perfbench")


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else []


def _package_paths(source):
    """Every dotted ``repro...`` path the source imports or references.

    Covers ``from pkg import name``, attribute chains off an imported
    module (``repro.core.MEI``) and dotted paths in string literals
    (patch targets); docstrings do not count.
    """
    tree = ast.parse(source)
    docstrings = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    aliases, paths = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                paths.add(f"{node.module}.{alias.name}")
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                aliases[alias.asname or head] = alias.name if alias.asname else head
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            paths.update(re.findall(r"\brepro(?:\.\w+)+", node.value))
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else []
        if chain and chain[0] in aliases:
            paths.add(".".join([aliases[chain[0]], *chain[1:]]))
    return paths


def _reexports(init):
    """Names a package ``__init__`` imports from ``repro`` modules and
    does not use in its own body."""
    tree = ast.parse(init.read_text())
    imported = {
        alias.asname or alias.name for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro")
        for alias in node.names
    }
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_reexport_has_a_caller():
    """A package re-exports a name only if some caller reaches it through
    the package path (or README's quick start does); a name that also
    names a submodule never counts as reached."""
    readme = pathlib.Path("README.md").read_text()
    paths = _package_paths(re.search(r"## Quickstart\s+```python\n(.*?)```", readme, re.S)[1])
    for root in CALLER_ROOTS:
        for path in pathlib.Path(root).rglob("*.py"):
            paths |= _package_paths(path.read_text())
    reached = set()
    for dotted in paths:
        parts = dotted.split(".")
        reached.update((".".join(parts[:i]), parts[i]) for i in range(1, len(parts)))
    unused = []
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(SRC).parts)
        for name in sorted(_reexports(init)):
            submodule = init.parent / name
            if ((package, name) not in reached or submodule.is_dir()
                    or submodule.with_suffix(".py").is_file()):
                unused.append(f"{package}.{name}")
    assert not unused, f"{len(unused)} names re-exported without a caller: {unused}"


def test_examples_compile():
    examples = sorted(pathlib.Path("examples").glob("*.py"))
    assert len(examples) >= 3, "the repo promises at least three examples"
    for path in examples:
        py_compile.compile(str(path), doraise=True)


def test_examples_have_main_guard():
    for path in sorted(pathlib.Path("examples").glob("*.py")):
        source = path.read_text()
        assert '__name__ == "__main__"' in source, f"{path} lacks a main guard"
        assert source.lstrip().startswith('"""'), f"{path} lacks a module docstring"


def test_version_consistency():
    import repro

    pyproject = pathlib.Path("pyproject.toml").read_text()
    assert f'version = "{repro.__version__}"' in pyproject
