"""The repro-lint engine: file walking, suppressions, rendering.

Separated from the rules so the rule set stays declarative: the engine
owns parsing, the ``# repro-lint: disable=RPRnnn`` suppression
protocol, finding aggregation and the two output formats (human
one-line-per-finding and a machine-readable JSON report).
"""

from __future__ import annotations

import ast
import io
import json
import pathlib
import re
import tokenize
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Union

from repro.lintrules.program import ALL_PROGRAM_RULES, ProgramRule, build_context
from repro.lintrules.rules import ALL_RULES, ImportMap, Rule

__all__ = [
    "Finding",
    "SCHEMA_VERSION",
    "check_source",
    "default_target",
    "iter_python_files",
    "render_human",
    "render_json",
    "run_paths",
    "run_program",
    "suppressed_lines",
]

PathLike = Union[str, pathlib.Path]

SCHEMA_VERSION = 2
"""Version of the ``--json`` report schema.  2 added the field itself,
program-rule findings and globally stable ordering."""

_SUPPRESSION = re.compile(r"#\s*repro-lint:\s*disable=([A-Z0-9,\s]+)")

_NON_LIBRARY_FILES = frozenset({"__main__.py"})
"""Module basenames exempt from the library-only rules (RPR004): the
CLI entry point owns stdout by design."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def suppressed_lines(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule codes disabled on that line.

    A trailing ``# repro-lint: disable=RPR001`` comment suppresses the
    named rule(s) for findings anchored to that physical line;
    ``disable=RPR001,RPR004`` lists several.  Unknown codes are kept
    verbatim (suppressing a rule that never fires is harmless and
    survives rule renames in flight).
    """
    disabled: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION.search(token.string)
            if not match:
                continue
            codes = {code.strip() for code in match.group(1).split(",") if code.strip()}
            disabled.setdefault(token.start[0], set()).update(codes)
    except tokenize.TokenError:
        pass
    return disabled


def check_source(
    source: str,
    path: PathLike = "<string>",
    rules: Sequence[Rule] = ALL_RULES,
    is_library: Optional[bool] = None,
) -> List[Finding]:
    """Run the rule set over one module's source text."""
    path = pathlib.Path(path)
    if is_library is None:
        is_library = path.name not in _NON_LIBRARY_FILES
    tree = ast.parse(source, filename=str(path))
    imports = ImportMap(tree)
    disabled = suppressed_lines(source)
    findings = []
    for rule in rules:
        if rule.applies is not None and not rule.applies(path):
            continue
        for line, col, message in rule.check(tree, imports, is_library):
            if rule.code in disabled.get(line, ()):
                continue
            findings.append(
                Finding(rule=rule.code, path=str(path), line=line, col=col, message=message)
            )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def iter_python_files(paths: Iterable[PathLike]) -> Iterator[pathlib.Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: Set[pathlib.Path] = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            candidates: Iterable[pathlib.Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def default_target() -> pathlib.Path:
    """The package's own source tree (what ``python -m repro lint`` checks)."""
    import repro

    return pathlib.Path(repro.__file__).parent


def run_program(
    files: Sequence[pathlib.Path],
    program_rules: Sequence[ProgramRule] = ALL_PROGRAM_RULES,
) -> List[Finding]:
    """Run the whole-program rules (RPR006/RPR008/RPR009) over a file set.

    Suppressions work exactly as for per-file rules: a ``# repro-lint:
    disable=RPRnnn`` comment on the anchored line silences the finding.
    """
    parsed = []
    suppressions: Dict[pathlib.Path, Dict[int, Set[str]]] = {}
    for path in files:
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            continue
        parsed.append((path, source, tree))
        suppressions[path] = suppressed_lines(source)
    context = build_context(parsed)
    findings: List[Finding] = []
    for rule in program_rules:
        for path, line, col, message in rule.check(context):
            if rule.code in suppressions.get(path, {}).get(line, ()):
                continue
            findings.append(
                Finding(rule=rule.code, path=str(path), line=line, col=col, message=message)
            )
    return findings


def run_paths(
    paths: Optional[Iterable[PathLike]] = None,
    rules: Sequence[Rule] = ALL_RULES,
    program_rules: Sequence[ProgramRule] = ALL_PROGRAM_RULES,
) -> List[Finding]:
    """Lint every Python file under ``paths`` (default: the repro package).

    Runs the per-file rules over each module and the whole-program
    rules once over the full set.
    """
    targets = list(paths) if paths else [default_target()]
    files = list(iter_python_files(targets))
    findings: List[Finding] = []
    for path in files:
        source = path.read_text(encoding="utf-8")
        findings.extend(check_source(source, path, rules=rules))
    findings.extend(run_program(files, program_rules=program_rules))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def render_human(findings: Sequence[Finding], checked: Optional[int] = None) -> str:
    """One line per finding plus a summary, ruff-style."""
    lines = [finding.format() for finding in findings]
    suffix = f" across {checked} files" if checked is not None else ""
    if findings:
        per_rule: Dict[str, int] = {}
        for finding in findings:
            per_rule[finding.rule] = per_rule.get(finding.rule, 0) + 1
        counts = ", ".join(f"{code}: {n}" for code, n in sorted(per_rule.items()))
        lines.append(f"repro-lint: {len(findings)} finding(s){suffix} ({counts})")
    else:
        lines.append(f"repro-lint: clean{suffix}")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], checked: Optional[int] = None) -> str:
    """Machine-readable report (uploaded as a CI artifact)."""
    per_rule: Dict[str, int] = {}
    ordered = sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
    for finding in ordered:
        per_rule[finding.rule] = per_rule.get(finding.rule, 0) + 1
    codes = {rule.code for rule in ALL_RULES} | {rule.code for rule in ALL_PROGRAM_RULES}
    payload = {
        "tool": "repro-lint",
        "schema_version": SCHEMA_VERSION,
        "rules": sorted(codes),
        "files_checked": checked,
        "total": len(ordered),
        "by_rule": {code: per_rule[code] for code in sorted(per_rule)},
        "findings": [finding.to_dict() for finding in ordered],
    }
    return json.dumps(payload, indent=2)
