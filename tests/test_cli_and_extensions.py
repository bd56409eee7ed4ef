"""Tests for the CLI entry point and the bit-length extension experiment."""

import ast
import inspect
import json
import pathlib
import re
import shlex
import textwrap
from types import SimpleNamespace

import pytest

from repro import __main__ as cli
from repro.__main__ import build_parser, main
from repro.core.runner import FULL_SCALE, QUICK_SCALE, ExperimentScale
from repro.experiments import fig_faults, table1
from repro.experiments.bitlength import run_bitlength
from repro.robustness.campaign import FAST_CAMPAIGN_SCALE

ROOT = pathlib.Path(__file__).resolve().parents[1]

TINY = ExperimentScale(name="tiny", n_train=300, n_test=80, epochs=15, noise_trials=2)


class TestCLI:
    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "AD/DA total" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_bench_flag_requires_valid_name(self):
        with pytest.raises(SystemExit):
            main(["table1", "--bench", "nonexistent"])


_BUDGET = {"--seed", "--scale"}
COMMAND_FLAGS = {
    "fig2": {"--run-dir"},
    "fig3": _BUDGET | {"--run-dir"},
    "table1": _BUDGET | {"--run-dir", "--bench"},
    "fig4": _BUDGET | {"--run-dir"},
    "fig5": _BUDGET | {"--run-dir"},
    "bitlength": _BUDGET | {"--run-dir"},
    "all": _BUDGET | {"--run-dir"},
    "faults": _BUDGET | {"--run-dir", "--bench", "--workers", "--no-chaos"},
    "bench": _BUDGET | {"--bench", "--history", "--write-baseline", "--allow-dirty"},
    "errorbudget": _BUDGET | {
        "--bench", "--history", "--json", "--write-baseline", "--allow-dirty",
        "--trials", "--ensemble", "--sigma-pv", "--sigma-sf", "--comparator-offset",
        "--wire-resistance", "--workers", "--check",
    },
    "compare": {"--history", "--json", "--baseline", "--baseline-file", "--strict",
                "--kind"},
    "report": {"--history", "--out"},
    "summary": set(),
    "lint": {"--json", "--paths", "--list-rules", "--graph"},
    "serve": _BUDGET | {"--run-dir", "--bench", "--ensemble", "--port", "--artifact",
                        "--save-only", "--smoke"},
}
"""Every command's flags besides ``--help`` and ``--log-level`` (read by ``main``)."""


def _args_read(func, seen=None):
    """``args.<name>`` reads in ``func`` and the ``repro.__main__`` functions it calls."""
    seen = set() if seen is None else seen
    seen.add(func)
    names = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(func)))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            names.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            callee = getattr(cli, node.func.id, None)
            if (inspect.isfunction(callee) and callee.__module__ == cli.__name__
                    and callee not in seen):
                names |= _args_read(callee, seen)
    return names


class TestSubcommands:
    def test_every_command_is_covered(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        listed = re.findall(r"^    (\w+)", capsys.readouterr().out, re.M)
        assert sorted(listed) == sorted(COMMAND_FLAGS)

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_help_lists_only_the_flags_the_handler_reads(self, command, capsys):
        with pytest.raises(SystemExit) as exited:
            main([command, "--help"])
        assert exited.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == COMMAND_FLAGS[command] | {"--help", "--log-level"}
        handler = build_parser().parse_args([command]).run
        read = _args_read(handler) - {"argv", "command"}
        assert read == {flag[2:].replace("-", "_") for flag in COMMAND_FLAGS[command]}

    @pytest.mark.parametrize("argv", [
        ["fig2", "--sigma-pv", "0.3"],
        ["fig2", "--seed", "1"],
        ["fig2", "--scale", "full"],
        ["table1", "--port", "1"],
        ["table1", "--full"],
        ["serve", "--no-chaos"],
        ["compare", "--scale", "full"],
        ["report", "--seed", "1"],
        ["faults", "--trials", "3"],
    ])
    def test_inapplicable_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestScale:
    @pytest.fixture
    def table1_scales(self, monkeypatch):
        seen = []

        def fake_table1(scale, seed):
            seen.append(scale)
            return SimpleNamespace(render=lambda: "table")

        monkeypatch.setattr(table1, "run_table1", fake_table1)
        monkeypatch.delenv("REPRO_FULL", raising=False)
        return seen

    def test_scale_flag_reaches_the_handler(self, table1_scales, capsys):
        assert main(["table1", "--scale", "full"]) == 0
        assert main(["table1"]) == 0
        assert main(["table1", "--scale", "quick"]) == 0
        assert table1_scales == [FULL_SCALE, QUICK_SCALE, QUICK_SCALE]

    def test_repro_full_sets_the_default(self, table1_scales, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert main(["table1"]) == 0
        assert main(["table1", "--scale", "quick"]) == 0
        assert table1_scales == [FULL_SCALE, QUICK_SCALE]
        assert build_parser().parse_args(["serve"]).scale == "full"

    def test_scale_choices(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["table1", "--scale", "fast"])
        assert exited.value.code == 2


class TestFaultsCommand:
    @pytest.fixture
    def campaign(self, monkeypatch):
        calls = []

        def fake_campaign(**kwargs):
            calls.append(kwargs)
            return SimpleNamespace(render=lambda: "campaign", to_dict=lambda: {"rows": []})

        monkeypatch.setattr(fig_faults, "run_fig_faults", fake_campaign)
        return calls

    def test_defaults_to_the_fast_budget(self, campaign, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert main(["faults", "--run-dir", str(tmp_path)]) == 0
        assert campaign[0]["scale"] == FAST_CAMPAIGN_SCALE
        assert campaign[0]["workers"] == 2 and campaign[0]["chaos"] is True
        assert main(["faults", "--scale", "full", "--run-dir", str(tmp_path)]) == 0
        assert campaign[1]["scale"] == FULL_SCALE

    def test_manifest_records_the_parsed_argv(self, campaign, tmp_path, capsys):
        argv = ["faults", "--no-chaos", "--seed", "3", "--run-dir", str(tmp_path)]
        assert main(argv) == 0
        (path,) = tmp_path.glob("*-faults.json")
        manifest = json.loads(path.read_text())
        assert manifest["argv"] == argv
        assert manifest["seed"] == 3 and manifest["scale"]["name"] == "fast"
        assert campaign[0]["chaos"] is False

    def test_figure_manifest_records_the_parsed_argv(self, tmp_path, capsys):
        argv = ["fig2", "--run-dir", str(tmp_path)]
        assert main(argv) == 0
        (path,) = tmp_path.glob("*-fig2.json")
        assert json.loads(path.read_text())["argv"] == argv


DOCUMENTED_IN = [
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / "EXPERIMENTS.md",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    ROOT / ".github" / "workflows" / "ci.yml",
]


def _code_segments(path):
    """Shell lines of ``path``: fenced and inline code spans for markdown."""
    text = re.sub(r"\\\n\s*", " ", path.read_text(encoding="utf-8"))
    text = text.replace("${{ matrix.seed }}", "0")
    text = re.sub(r"\{[^{}`]*\}", lambda group: "".join(group.group(0).split()), text)
    if path.suffix != ".md":
        return text.splitlines()
    fences = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
    segments = [line for block in fences.findall(text) for line in block.splitlines()]
    segments += [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", fences.sub("", text))]
    return segments


def _documented_commands():
    """``(file, argv)`` of every ``python -m repro`` line in the docs and CI.

    Optional parts written ``[--bench fft]`` are parsed as given, and a
    ``{a,b}`` list of commands as one line per command.  A bare
    ``python -m repro`` names the program, not a command line, and is
    skipped.
    """
    for path in DOCUMENTED_IN:
        for segment in _code_segments(path):
            for match in re.finditer(r"python3? -m repro(?=\s|$)([^#>|;&\n]*)", segment):
                tokens = shlex.split(match.group(1).replace("[", "").replace("]", ""))
                if not tokens:
                    continue
                if tokens[0].startswith("{"):
                    for command in tokens[0].strip("{}").split(","):
                        yield path.relative_to(ROOT).as_posix(), [command]
                else:
                    yield path.relative_to(ROOT).as_posix(), tokens


DOCUMENTED = list(_documented_commands())


class TestDocumentedCommands:
    def test_every_file_documents_commands(self):
        files = {where for where, _ in DOCUMENTED}
        assert files >= {"README.md", ".github/workflows/ci.yml",
                         ".claude/skills/verify/SKILL.md", "docs/serving.md"}
        assert len(DOCUMENTED) > 60

    @pytest.mark.parametrize("where, argv", DOCUMENTED,
                             ids=[" ".join(argv) for _, argv in DOCUMENTED])
    def test_documented_command_parses(self, where, argv, capsys):
        try:
            build_parser().parse_args(argv)
        except SystemExit as exited:
            assert exited.code == 0, (
                f"{where}: `python -m repro {' '.join(argv)}` does not parse: "
                f"{capsys.readouterr().err}"
            )


class TestBitLength:
    def test_sweep_structure(self):
        result = run_bitlength(name="sobel", bit_lengths=(4, 8), scale=TINY, seed=0)
        assert [p.bits for p in result.points] == [4, 8]
        assert all(0 <= p.error for p in result.points)
        assert "bits" in result.render()

    def test_wider_interface_costs_more(self):
        result = run_bitlength(name="sobel", bit_lengths=(4, 8), scale=TINY, seed=0)
        four, eight = result.points
        # More ports -> more devices -> smaller savings.
        assert eight.area_saved < four.area_saved
        assert eight.power_saved < four.power_saved
