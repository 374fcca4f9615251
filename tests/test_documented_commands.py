"""Documented commands cannot drift from the CLI.

Every ``python -m repro ...`` command documented in README.md's fenced
code blocks, the CI workflow's ``run:`` steps, the verify skill's fenced
blocks and inline code spans, and EXPERIMENTS.md's inline code spans
(joined across line breaks) must parse under
:func:`repro.cli.build_parser`, and every ``verify --topology`` value
must name a family in :data:`repro.core.fabrics.FABRICS`.

Every ``from repro... import ...`` and ``import repro...`` line in the
fenced ``python`` blocks of README.md, EXPERIMENTS.md and DESIGN.md, and
in the docstring of every package ``__init__`` under ``src/repro``, must
resolve: the module imports, and each imported name is an attribute or
a submodule of it.  Packages re-export nothing, so a snippet that imports a name from
its package instead of the module defining it fails here.

Documentation notation reads as a reader would type it: a metavariable
``N`` is an integer, a bracketed optional flag such as ``[--json]`` is
left out, and a ``<...>`` placeholder names no particular family.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import re
import shlex
from typing import List, Tuple

import pytest

from repro.cli import build_parser
from repro.core.fabrics import FABRICS

REPO = pathlib.Path(__file__).resolve().parent.parent
README = REPO / "README.md"
CI = REPO / ".github" / "workflows" / "ci.yml"
SKILL = REPO / ".claude" / "skills" / "verify" / "SKILL.md"
EXPERIMENTS = REPO / "EXPERIMENTS.md"
DESIGN = REPO / "DESIGN.md"
PACKAGE = REPO / "src" / "repro"

#: the command after the module, up to an inline shell comment
_COMMAND = re.compile(r"python -m repro(?=\s|$)(?P<args>[^#]*)")
#: a shell substitution such as "$(date +%Y%m%d)"
_SUBSTITUTION = re.compile(r'"?\$\([^)]*\)"?')
#: an inline code span
_SPAN = re.compile(r"`([^`]+)`")
#: a bracketed optional flag, e.g. "[--json]"
_OPTIONAL = re.compile(r"\s*\[--[^]]*\]")
#: the metavariable N, standing for an integer
_METAVARIABLE = re.compile(r"(?<=\s)N(?=\s|$)")
#: a placeholder such as "<family>"
_PLACEHOLDER = re.compile(r"<[^>]*>")
#: a Python statement importing from ``repro``
_IMPORT = re.compile(r"^\s*(?:from|import)\s+repro\b")


def split_fences(path: pathlib.Path) -> Tuple[List[str], List[str]]:
    """A markdown file's lines inside fenced code blocks, and outside."""
    inside: List[str] = []
    outside: List[str] = []
    fenced = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        else:
            (inside if fenced else outside).append(line)
    return inside, outside


def inline_spans(lines: List[str]) -> List[str]:
    """The inline code spans of markdown prose, a span broken across
    lines read as one."""
    return _SPAN.findall(" ".join(line.strip() for line in lines))


def ci_run_lines() -> List[str]:
    """The shell lines of the workflow's ``run:`` steps, one-line and
    block (``run: |``) form alike."""
    lines: List[str] = []
    block_indent = None
    for line in CI.read_text().splitlines():
        indent = len(line) - len(line.lstrip())
        if block_indent is not None:
            if not line.strip() or indent > block_indent:
                lines.append(line.strip())
                continue
            block_indent = None
        step = line.strip().removeprefix("- ")
        if step.startswith("run:"):
            command = step[len("run:"):].strip()
            if command in ("|", ">"):
                block_indent = indent
            else:
                lines.append(command)
    return lines


def documented_commands() -> list:
    skill_fenced, skill_prose = split_fences(SKILL)
    sources = (
        ("README.md", split_fences(README)[0]),
        ("ci.yml", ci_run_lines()),
        ("SKILL.md", skill_fenced + inline_spans(skill_prose)),
        ("EXPERIMENTS.md", inline_spans(split_fences(EXPERIMENTS)[1])),
    )
    commands = []
    for source, lines in sources:
        for line in lines:
            match = _COMMAND.search(line)
            if match is None:
                continue
            args = _SUBSTITUTION.sub("20260101", match.group("args"))
            args = _METAVARIABLE.sub("1", _OPTIONAL.sub("", args)).strip()
            if not args:  # the entry point named, no command
                continue
            commands.append(pytest.param(shlex.split(args), id=f"{source}:{args}"))
    return commands


COMMANDS = documented_commands()


def test_documents_name_commands():
    """Every document is scanned (a parser change that found nothing
    would pass vacuously)."""
    ids = [param.id for param in COMMANDS]
    assert any(i.startswith("README.md:verify") for i in ids)
    assert any(i.startswith("ci.yml:check") for i in ids)
    assert any(i.startswith("SKILL.md:bench") for i in ids)
    assert any(i.startswith("EXPERIMENTS.md:check --differential") for i in ids)


@pytest.mark.parametrize("argv", COMMANDS)
def test_documented_command_parses(argv):
    args = build_parser().parse_args(argv)
    if args.command == "verify" and not _PLACEHOLDER.fullmatch(args.topology):
        assert args.topology in FABRICS


def python_fences(path: pathlib.Path) -> List[str]:
    """A markdown file's lines inside fenced ``python`` code blocks."""
    lines: List[str] = []
    fenced = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced and line.strip() == "```python"
        elif fenced:
            lines.append(line)
    return lines


def package_docstrings() -> List[Tuple[str, List[str]]]:
    """(path, docstring lines) of every package ``__init__``."""
    return [
        (
            str(init.relative_to(REPO)),
            (ast.get_docstring(ast.parse(init.read_text()), clean=False) or "").splitlines(),
        )
        for init in sorted(PACKAGE.rglob("__init__.py"))
    ]


def documented_imports() -> list:
    sources = [
        (path.name, python_fences(path)) for path in (README, EXPERIMENTS, DESIGN)
    ] + package_docstrings()
    return [
        pytest.param(line.strip(), id=f"{source}:{line.strip()}")
        for source, lines in sources
        for line in lines
        if _IMPORT.match(line)
    ]


IMPORTS = documented_imports()


def test_documents_name_imports():
    """Both kinds of source are scanned (a parser change that found
    nothing would pass vacuously)."""
    ids = [param.id for param in IMPORTS]
    assert any(i.startswith("README.md:from repro.campaign") for i in ids)
    assert any(i.startswith("src/repro/__init__.py:from repro.experiments") for i in ids)


@pytest.mark.parametrize("statement", IMPORTS)
def test_documented_import_resolves(statement):
    (node,) = ast.parse(statement).body
    if isinstance(node, ast.Import):
        for alias in node.names:
            importlib.import_module(alias.name)
        return
    assert isinstance(node, ast.ImportFrom) and node.module is not None
    module = importlib.import_module(node.module)
    for alias in node.names:
        if not hasattr(module, alias.name):  # a submodule not loaded yet
            importlib.import_module(f"{node.module}.{alias.name}")
