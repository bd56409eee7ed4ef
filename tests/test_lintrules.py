"""Fixture-driven coverage for the repro-lint rule set.

Every RPR rule gets at least one *positive* fixture (the rule fires)
and one *negative* fixture (idiomatic code passes), plus suppression,
rendering and repo-wide enforcement tests.  Fixtures are inline source
snippets: the unit under test is pure (source text in, findings out),
so no tmp files are needed except for the path-walking tests.
"""

from __future__ import annotations

import json

import pytest

from repro.lintrules import (
    ALL_PROGRAM_RULES,
    ALL_RULES,
    SCHEMA_VERSION,
    check_source,
    render_human,
    render_json,
    run_paths,
    suppressed_lines,
)
from repro.lintrules.engine import default_target, iter_python_files, run_program


def codes(source: str, path: str = "lib.py") -> list:
    return [finding.rule for finding in check_source(source, path)]


# ---------------------------------------------------------------------------
# RPR001 — unseeded generator construction
# ---------------------------------------------------------------------------


class TestRPR001:
    def test_fires_on_bare_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert codes(src) == ["RPR001"]

    def test_fires_through_import_alias(self):
        src = "from numpy.random import default_rng as make\nrng = make()\n"
        assert codes(src) == ["RPR001"]

    def test_fires_on_direct_generator_construction(self):
        src = "import numpy as np\ng = np.random.Generator(np.random.PCG64(7))\n"
        assert "RPR001" in codes(src)

    def test_silent_on_seeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert codes(src) == []

    def test_silent_on_threaded_rng_argument(self):
        src = (
            "import numpy as np\n"
            "def noisy(x, rng):\n"
            "    return x + rng.normal(size=x.shape)\n"
        )
        assert codes(src) == []


# ---------------------------------------------------------------------------
# RPR002 — legacy global RNG state
# ---------------------------------------------------------------------------


class TestRPR002:
    def test_fires_on_numpy_global_seed(self):
        src = "import numpy as np\nnp.random.seed(0)\nx = np.random.rand(3)\n"
        found = codes(src)
        assert found.count("RPR002") == 2

    def test_fires_on_stdlib_random_import(self):
        assert codes("import random\n") == ["RPR002"]

    def test_fires_on_from_import_of_legacy_function(self):
        assert codes("from numpy.random import randn\n") == ["RPR002"]

    def test_silent_on_generator_api(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(1)\n"
            "ok = isinstance(rng, np.random.Generator)\n"
            "seq = np.random.SeedSequence(5)\n"
        )
        assert codes(src) == []


# ---------------------------------------------------------------------------
# RPR003 — environment reads outside the knob registry
# ---------------------------------------------------------------------------


class TestRPR003:
    def test_fires_on_environ_get(self):
        src = "import os\nlevel = os.environ.get('REPRO_LOG', '')\n"
        assert codes(src) == ["RPR003"]

    def test_fires_on_getenv_and_subscript(self):
        src = "import os\na = os.getenv('REPRO_SHM')\nb = os.environ['REPRO_FULL']\n"
        assert codes(src) == ["RPR003", "RPR003"]

    def test_fires_on_environ_iteration(self):
        src = "import os\nknobs = {k: v for k, v in os.environ.items()}\n"
        assert codes(src) == ["RPR003"]

    def test_silent_on_registry_read(self):
        src = (
            "from repro.config import knobs\n"
            "workers = knobs.get_int('REPRO_WORKERS')\n"
        )
        assert codes(src) == []


# ---------------------------------------------------------------------------
# RPR004 — stdout writes in library modules
# ---------------------------------------------------------------------------


class TestRPR004:
    def test_fires_on_print_in_library_module(self):
        assert codes("print('done')\n", "repro/core/thing.py") == ["RPR004"]

    def test_fires_on_sys_stdout_write(self):
        src = "import sys\nsys.stdout.write('table')\n"
        assert codes(src) == ["RPR004"]

    def test_fires_on_print_to_explicit_stdout(self):
        src = "import sys\nprint('x', file=sys.stdout)\n"
        assert "RPR004" in codes(src)

    def test_silent_in_main_module(self):
        assert codes("print('table row')\n", "repro/__main__.py") == []

    def test_silent_on_stderr_diagnostics(self):
        src = "import sys\nprint('debug', file=sys.stderr)\n"
        assert codes(src) == []


# ---------------------------------------------------------------------------
# RPR005 — hand-rolled rng normalization
# ---------------------------------------------------------------------------


class TestRPR005:
    def test_fires_on_not_isinstance_block(self):
        src = (
            "import numpy as np\n"
            "def f(rng=None):\n"
            "    if not isinstance(rng, np.random.Generator):\n"
            "        rng = np.random.default_rng(rng)\n"
            "    return rng\n"
        )
        assert codes(src) == ["RPR005"]

    def test_fires_on_conditional_expression_form(self):
        src = (
            "import numpy as np\n"
            "def f(rng):\n"
            "    return rng if isinstance(rng, np.random.Generator) "
            "else np.random.default_rng(rng)\n"
        )
        assert codes(src) == ["RPR005"]

    def test_silent_on_ensure_rng(self):
        src = (
            "from repro.parallel.seeding import ensure_rng\n"
            "def f(rng=None):\n"
            "    return ensure_rng(rng, 'fixture')\n"
        )
        assert codes(src) == []

    def test_silent_on_unrelated_isinstance(self):
        src = "def f(x):\n    if not isinstance(x, int):\n        x = int(x)\n    return x\n"
        assert codes(src) == []


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


def write_tree(root, files: dict) -> list:
    """Materialize {relpath: source} under root; returns the file list."""
    paths = []
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        paths.append(path)
    # every package directory needs an __init__.py for module naming
    for rel in files:
        parent = (root / rel).parent
        while parent != root:
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("")
                paths.append(init)
            parent = parent.parent
    return sorted(set(paths))


def program_codes(root, files: dict) -> list:
    return [f.rule for f in run_program(write_tree(root, files))]


# ---------------------------------------------------------------------------
# RPR006 — layering contract and cycle freedom (whole-program)
# ---------------------------------------------------------------------------


class TestRPR006:
    def test_fires_on_seeded_upward_import(self, tmp_path):
        # the CI gate scenario: someone makes config depend on obs
        found = program_codes(
            tmp_path,
            {
                "repro/config/bad.py": "from repro.obs import log\n",
                "repro/obs/log.py": "x = 1\n",
            },
        )
        assert found == ["RPR006"]

    def test_fires_on_peer_package_import(self, tmp_path):
        found = program_codes(
            tmp_path,
            {
                "repro/quant/a.py": "import repro.parallel.b\n",
                "repro/parallel/b.py": "x = 1\n",
            },
        )
        assert found == ["RPR006"]

    def test_fires_on_module_cycle(self, tmp_path):
        found = program_codes(
            tmp_path,
            {
                "repro/xbar/a.py": "import repro.xbar.b\n",
                "repro/xbar/b.py": "import repro.xbar.a\n",
            },
        )
        assert found == ["RPR006"]

    def test_silent_on_downward_and_lazy_imports(self, tmp_path):
        found = program_codes(
            tmp_path,
            {
                "repro/nn/net.py": (
                    "from repro.config import knobs\n"           # downward: fine
                    "def debug():\n"
                    "    from repro.experiments import x\n"      # lazy seam: exempt
                ),
                "repro/config/knobs.py": "x = 1\n",
                "repro/experiments/x.py": "x = 1\n",
            },
        )
        assert found == []

    def test_silent_on_type_checking_import(self, tmp_path):
        found = program_codes(
            tmp_path,
            {
                "repro/device/f.py": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    from repro.xbar.c import C\n"
                ),
                "repro/xbar/c.py": "class C: pass\n",
            },
        )
        assert found == []


# ---------------------------------------------------------------------------
# RPR007 — raw float dtype literals in hot-path packages
# ---------------------------------------------------------------------------


class TestRPR007:
    HOT = "src/repro/xbar/newmod.py"

    def test_fires_on_dtype_float_in_hot_path(self):
        src = "import numpy as np\nx = np.zeros(3, dtype=float)\n"
        assert codes(src, self.HOT) == ["RPR007"]

    def test_fires_on_np_float64_and_string_literals(self):
        src = (
            "import numpy as np\n"
            "a = np.asarray([1], dtype=np.float64)\n"
            "b = np.asarray([1], dtype='float32')\n"
        )
        assert codes(src, self.HOT) == ["RPR007", "RPR007"]

    def test_fires_on_astype_float(self):
        src = "import numpy as np\ny = np.arange(3).astype(float)\n"
        assert codes(src, self.HOT) == ["RPR007"]

    def test_silent_outside_hot_path_packages(self):
        src = "import numpy as np\nx = np.zeros(3, dtype=float)\n"
        assert codes(src, "src/repro/core/newmod.py") == []

    def test_silent_on_config_dtype_astype(self):
        src = (
            "import numpy as np\n"
            "from repro.config.dtype import astype as _astype\n"
            "x = _astype(np.zeros(3))\n"
            "m = np.zeros(3, dtype=bool)\n"
        )
        assert codes(src, self.HOT) == []


# ---------------------------------------------------------------------------
# RPR008 — knob lifecycle (whole-program)
# ---------------------------------------------------------------------------

KNOBS_MODULE = (
    "def register(name, kind, default, description):\n"
    "    pass\n"
    "def get_bool(name):\n"
    "    return False\n"
)


class TestRPR008:
    def test_fires_on_registered_but_never_read(self, tmp_path):
        found = program_codes(
            tmp_path,
            {
                "repro/config/knobs.py": (
                    KNOBS_MODULE + "register('REPRO_DEAD', 'bool', '0', 'unused')\n"
                ),
            },
        )
        assert found == ["RPR008"]

    def test_fires_on_import_time_read(self, tmp_path):
        found = program_codes(
            tmp_path,
            {
                "repro/config/knobs.py": (
                    KNOBS_MODULE + "register('REPRO_X', 'bool', '0', 'doc')\n"
                ),
                "repro/nn/mod.py": (
                    "from repro.config import knobs\n"
                    "FROZEN = knobs.get_bool('REPRO_X')\n"
                ),
            },
        )
        assert found == ["RPR008"]

    def test_fires_on_unregistered_read(self, tmp_path):
        found = program_codes(
            tmp_path,
            {
                "repro/config/knobs.py": (
                    KNOBS_MODULE + "register('REPRO_X', 'bool', '0', 'doc')\n"
                ),
                "repro/nn/mod.py": (
                    "from repro.config import knobs\n"
                    "def f():\n"
                    "    return knobs.get_bool('REPRO_X'), knobs.get_bool('REPRO_TYPO')\n"
                ),
            },
        )
        assert found == ["RPR008"]

    def test_resolves_module_level_env_constants(self, tmp_path):
        # the owning-module idiom: X_ENV = "REPRO_X"; get_bool(X_ENV)
        found = program_codes(
            tmp_path,
            {
                "repro/config/knobs.py": (
                    KNOBS_MODULE + "register('REPRO_X', 'bool', '0', 'doc')\n"
                ),
                "repro/obs/mod.py": (
                    "from repro.config import knobs\n"
                    "X_ENV = 'REPRO_X'\n"
                    "def enabled():\n"
                    "    return knobs.get_bool(X_ENV)\n"
                ),
            },
        )
        assert found == []


# ---------------------------------------------------------------------------
# RPR009 — metric registry discipline (per-file + whole-program)
# ---------------------------------------------------------------------------


class TestRPR009:
    def test_fires_on_direct_metric_construction(self):
        src = "from repro.obs.metrics import Counter\nc = Counter('jobs')\n"
        assert codes(src) == ["RPR009"]

    def test_silent_inside_the_registry_module(self):
        src = "from repro.obs.metrics import Counter\nc = Counter('jobs')\n"
        assert codes(src, "src/repro/obs/metrics.py") == []

    def test_silent_on_factory_use(self):
        src = "from repro.obs import metrics\nc = metrics.counter('jobs')\n"
        assert codes(src) == []

    def test_fires_on_cross_family_name_collision(self, tmp_path):
        found = program_codes(
            tmp_path,
            {
                "repro/a.py": "from repro.obs import metrics\nc = metrics.counter('dup')\n",
                "repro/b.py": "from repro.obs import metrics\ng = metrics.gauge('dup')\n",
                "repro/obs/metrics.py": "def counter(n): pass\ndef gauge(n): pass\n",
            },
        )
        assert found == ["RPR009", "RPR009"]

    def test_fires_on_openmetrics_unsafe_name(self, tmp_path):
        found = program_codes(
            tmp_path,
            {
                "repro/a.py": "from repro.obs import metrics\nc = metrics.counter('Bad-Name')\n",
                "repro/obs/metrics.py": "def counter(n): pass\n",
            },
        )
        assert found == ["RPR009"]

    def test_silent_on_same_family_reuse(self, tmp_path):
        found = program_codes(
            tmp_path,
            {
                "repro/a.py": "from repro.obs import metrics\nc = metrics.counter('dup')\n",
                "repro/b.py": "from repro.obs import metrics\ng = metrics.counter('dup')\n",
                "repro/obs/metrics.py": "def counter(n): pass\n",
            },
        )
        assert found == []


# ---------------------------------------------------------------------------
# RPR010 — executors / SHM arenas without context management
# ---------------------------------------------------------------------------


class TestRPR010:
    def test_fires_on_bare_pool_construction(self):
        src = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "pool = ThreadPoolExecutor(2)\n"
        )
        assert codes(src) == ["RPR010"]

    def test_fires_on_bare_shm_session(self):
        src = "from repro.parallel.shm import ShmSession\ns = ShmSession()\n"
        assert codes(src) == ["RPR010"]

    def test_silent_on_with_block(self):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "with ProcessPoolExecutor(2) as pool:\n"
            "    pass\n"
        )
        assert codes(src) == []

    def test_silent_on_exit_stack(self):
        src = (
            "from contextlib import ExitStack\n"
            "from repro.parallel.shm import ShmSession\n"
            "with ExitStack() as stack:\n"
            "    s = stack.enter_context(ShmSession())\n"
        )
        assert codes(src) == []


class TestSuppressions:
    def test_line_suppression_silences_one_rule(self):
        src = "import os\nv = os.environ.get('X')  # repro-lint: disable=RPR003\n"
        assert codes(src) == []

    def test_suppression_is_line_scoped(self):
        src = (
            "import os\n"
            "a = os.environ.get('X')  # repro-lint: disable=RPR003\n"
            "b = os.environ.get('Y')\n"
        )
        findings = check_source(src, "lib.py")
        assert [(f.rule, f.line) for f in findings] == [("RPR003", 3)]

    def test_suppression_is_rule_scoped(self):
        src = "import os\nprint(os.environ['X'])  # repro-lint: disable=RPR003\n"
        assert codes(src) == ["RPR004"]

    def test_multi_code_suppression(self):
        src = "import os\nprint(os.environ['X'])  # repro-lint: disable=RPR003,RPR004\n"
        assert codes(src) == []

    def test_parser_reads_comment_tokens(self):
        lines = suppressed_lines("x = 1\ny = 2  # repro-lint: disable=RPR001, RPR005\n")
        assert lines == {2: {"RPR001", "RPR005"}}


# ---------------------------------------------------------------------------
# Engine: rendering, walking, and the repo-wide gate
# ---------------------------------------------------------------------------


class TestEngine:
    def test_render_human_lists_location_and_code(self):
        findings = check_source("print('x')\n", "pkg/mod.py")
        text = render_human(findings, checked=1)
        assert "pkg/mod.py:1:0: RPR004" in text
        assert "1 finding(s)" in text

    def test_render_human_clean(self):
        assert "clean" in render_human([], checked=3)

    def test_render_json_round_trips(self):
        findings = check_source("import random\n", "pkg/mod.py")
        payload = json.loads(render_json(findings, checked=1))
        assert payload["total"] == 1
        assert payload["by_rule"] == {"RPR002": 1}
        assert payload["findings"][0]["path"] == "pkg/mod.py"
        all_codes = {rule.code for rule in ALL_RULES} | {
            rule.code for rule in ALL_PROGRAM_RULES
        }
        assert payload["rules"] == sorted(all_codes)

    def test_render_json_is_schema_versioned_and_stably_ordered(self):
        # CI diffs the artifact across runs: the schema carries its
        # version and findings arrive in (path, line, col, rule) order
        # no matter the order they were produced in.
        findings = check_source("import random\n", "pkg/mod.py") + check_source(
            "import os\nos.environ['X']\n", "pkg/aaa.py"
        )
        payload = json.loads(render_json(findings, checked=2))
        assert payload["schema_version"] == SCHEMA_VERSION
        locations = [(f["path"], f["line"], f["col"], f["rule"]) for f in payload["findings"]]
        assert locations == sorted(locations)

    def test_iter_python_files_walks_and_dedupes(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "b.py").write_text("y = 2\n")
        (sub / "__pycache__").mkdir()
        (sub / "__pycache__" / "c.py").write_text("z = 3\n")
        files = list(iter_python_files([tmp_path, tmp_path / "a.py"]))
        assert [f.name for f in files] == ["a.py", "b.py"]

    def test_run_paths_reports_violations_in_tree(self, tmp_path):
        (tmp_path / "bad.py").write_text("import numpy as np\nr = np.random.default_rng()\n")
        findings = run_paths([tmp_path])
        assert [f.rule for f in findings] == ["RPR001"]

    def test_every_rule_has_positive_and_negative_fixture(self):
        # Meta-test: the classes above cover each registered rule
        # (RPR006 and RPR008 are program rules, RPR009 is both).
        covered = {rule.code for rule in ALL_RULES}
        covered |= {rule.code for rule in ALL_PROGRAM_RULES}
        assert covered == {f"RPR{i:03d}" for i in range(1, 11)}

    def test_program_findings_honour_suppressions(self, tmp_path):
        files = write_tree(
            tmp_path,
            {
                "repro/config/bad.py": (
                    "from repro.obs import log  # repro-lint: disable=RPR006\n"
                ),
                "repro/obs/log.py": "x = 1\n",
            },
        )
        assert [f.rule for f in run_program(files)] == []


_ALL_CODES = sorted(
    {rule.code for rule in ALL_RULES} | {rule.code for rule in ALL_PROGRAM_RULES}
)


@pytest.fixture(scope="module")
def repo_findings():
    """Every finding on the shipped package, from one pass over the tree."""
    return run_paths([default_target()])


@pytest.mark.parametrize("rule", _ALL_CODES)
def test_repo_is_clean(rule, repo_findings):
    """The enforcement gate: the shipped package has zero findings."""
    findings = [f for f in repo_findings if f.rule == rule]
    assert findings == [], "\n".join(f.format() for f in findings)


def test_cli_lint_exits_zero_and_reports_json(capsys):
    from repro.__main__ import main

    assert main(["lint", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 0
    assert payload["files_checked"] > 50


def test_cli_lint_nonzero_on_finding(tmp_path, capsys):
    from repro.__main__ import main

    bad = tmp_path / "bad.py"
    bad.write_text("import os\nv = os.environ.get('REPRO_LOG')\n")
    assert main(["lint", "--paths", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "RPR003" in out


def test_cli_list_rules(capsys):
    from repro.__main__ import main

    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.code in out
    for rule in ALL_PROGRAM_RULES:
        assert rule.code in out


def test_cli_lint_graph_renders_dot_and_svg(capsys):
    from repro.__main__ import main

    assert main(["lint", "--graph", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph")
    assert '"nn" -> "config"' in dot
    assert main(["lint", "--graph", "svg"]) == 0
    svg = capsys.readouterr().out
    assert svg.startswith("<svg")
    assert "xbar" in svg


# ---------------------------------------------------------------------------
# The import-graph builder itself
# ---------------------------------------------------------------------------


class TestImportGraph:
    def build(self, tmp_path, files):
        import ast

        from repro.lintrules.graph import build_graph

        paths = write_tree(tmp_path, files)
        return build_graph([(p, ast.parse(p.read_text())) for p in paths])

    def test_resolves_modules_and_classifies_edges(self, tmp_path):
        graph = self.build(
            tmp_path,
            {
                "repro/nn/net.py": (
                    "from repro.config import knobs\n"
                    "def lazy():\n"
                    "    from repro.obs import log\n"
                ),
                "repro/config/knobs.py": "x = 1\n",
                "repro/obs/log.py": "x = 1\n",
            },
        )
        assert "repro.nn.net" in graph.modules
        kinds = {(e.dst, e.lazy) for e in graph.edges if e.src == "repro.nn.net"}
        assert ("repro.config.knobs", False) in kinds
        assert ("repro.obs.log", True) in kinds

    def test_relative_imports_resolve(self, tmp_path):
        graph = self.build(
            tmp_path,
            {
                "repro/xbar/a.py": "from . import b\nfrom ..config import knobs\n",
                "repro/xbar/b.py": "x = 1\n",
                "repro/config/knobs.py": "x = 1\n",
            },
        )
        dsts = {e.dst for e in graph.edges if e.src == "repro.xbar.a"}
        assert {"repro.xbar.b", "repro.config.knobs"} <= dsts

    def test_find_cycles_reports_rotated_cycle(self, tmp_path):
        from repro.lintrules.graph import find_cycles

        graph = self.build(
            tmp_path,
            {
                "repro/core/a.py": "import repro.core.b\n",
                "repro/core/b.py": "import repro.core.c\n",
                "repro/core/c.py": "import repro.core.a\n",
            },
        )
        cycles = find_cycles(graph)
        assert len(cycles) == 1
        assert cycles[0][0] == "repro.core.a"
        assert set(cycles[0]) == {"repro.core.a", "repro.core.b", "repro.core.c"}

    def test_lazy_edges_do_not_create_cycles(self, tmp_path):
        from repro.lintrules.graph import find_cycles

        graph = self.build(
            tmp_path,
            {
                "repro/core/a.py": "import repro.core.b\n",
                "repro/core/b.py": "def f():\n    import repro.core.a\n",
            },
        )
        assert find_cycles(graph) == []

    def test_dot_marks_lazy_edges_dashed(self, tmp_path):
        from repro.lintrules.graph import REPRO_CONTRACT

        graph = self.build(
            tmp_path,
            {
                "repro/parallel/seeding.py": (
                    "def f():\n    from repro.obs import log\n"
                ),
                "repro/obs/log.py": "x = 1\n",
            },
        )
        dot = graph.to_dot(REPRO_CONTRACT)
        assert '"parallel" -> "obs" [style=dashed];' in dot

    def test_svg_renders_every_ranked_layer(self, tmp_path):
        from repro.lintrules.graph import LAYER_RANKS, REPRO_CONTRACT

        graph = self.build(
            tmp_path,
            {
                "repro/nn/net.py": "from repro.config import knobs\n",
                "repro/config/knobs.py": "x = 1\n",
            },
        )
        svg = graph.to_svg(REPRO_CONTRACT)
        for layer in LAYER_RANKS:
            assert f">{layer}<" in svg

    def test_module_name_for_walks_init_chain(self, tmp_path):
        from repro.lintrules.graph import module_name_for

        paths = write_tree(tmp_path, {"repro/xbar/mna.py": "x = 1\n"})
        named = {module_name_for(p) for p in paths}
        assert "repro.xbar.mna" in named
        assert "repro.xbar" in named  # the __init__ maps to the package
        loose = tmp_path / "script.py"
        loose.write_text("x = 1\n")
        assert module_name_for(loose) is None
