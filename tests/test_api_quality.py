"""API quality gates: docstrings, __all__ consistency, examples compile.

These tests keep the library releasable: every public item documented,
every advertised name importable, every example at least syntactically
sound.
"""

import importlib
import inspect
import pathlib
import py_compile

import pytest

PACKAGES = [
    "repro",
    "repro.quant",
    "repro.nn",
    "repro.device",
    "repro.xbar",
    "repro.analog",
    "repro.cost",
    "repro.workloads",
    "repro.core",
    "repro.metrics",
    "repro.experiments",
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
    "repro.device.dynamics",
    "repro.xbar.crossbar",
    "repro.xbar.mapping",
    "repro.xbar.mna",
    "repro.xbar.ir_drop",
    "repro.xbar.netlist",
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
