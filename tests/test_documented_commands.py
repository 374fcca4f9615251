"""Documented commands cannot drift from the CLI.

Every ``python -m repro ...`` line in README.md's fenced code blocks and
in the CI workflow's ``run:`` steps must parse under
:func:`repro.cli.build_parser`, and every ``verify --topology`` value
must name a family in :data:`repro.core.fabrics.FABRICS`.
"""

from __future__ import annotations

import pathlib
import re
import shlex
from typing import List

import pytest

from repro.cli import build_parser
from repro.core.fabrics import FABRICS

REPO = pathlib.Path(__file__).resolve().parent.parent
README = REPO / "README.md"
CI = REPO / ".github" / "workflows" / "ci.yml"

#: the command after the module, up to an inline shell comment
_COMMAND = re.compile(r"python -m repro(?=\s|$)(?P<args>[^#]*)")
#: a shell substitution such as "$(date +%Y%m%d)"
_SUBSTITUTION = re.compile(r'"?\$\([^)]*\)"?')


def readme_lines() -> List[str]:
    lines, fenced = [], False
    for line in README.read_text().splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif fenced:
            lines.append(line)
    return lines


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
    commands = []
    for source, lines in (("README.md", readme_lines()), ("ci.yml", ci_run_lines())):
        for line in lines:
            match = _COMMAND.search(line)
            if match is None:
                continue
            args = _SUBSTITUTION.sub("20260101", match.group("args"))
            commands.append(
                pytest.param(shlex.split(args), id=f"{source}:{args.strip()}")
            )
    return commands


COMMANDS = documented_commands()


def test_documents_name_commands():
    """Both documents are scanned (a parser change that found nothing
    would pass vacuously)."""
    ids = [param.id for param in COMMANDS]
    assert any(i.startswith("README.md:verify") for i in ids)
    assert any(i.startswith("ci.yml:check") for i in ids)


@pytest.mark.parametrize("argv", COMMANDS)
def test_documented_command_parses(argv):
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        assert args.topology in FABRICS
