"""``repro lint``: the operational entry point of the analyzer.

Shares the 0/1/2 exit-code convention of every other operational
subcommand: 0 = clean (or selftest diagonal fully proven), 1 =
findings (or a selftest miss), 2 = usage error (missing target path,
unparseable source).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Sequence

from .engine import iter_python_files, lint_paths
from .findings import Finding
from .rules import all_rules

#: schema version of the --json payload
JSON_VERSION = 1

#: directories scanned when no explicit targets are given
DEFAULT_TARGET_NAMES = ("src", "tests", "benchmarks")


def repo_root() -> pathlib.Path:
    """The checkout root (``src/repro/lint/cli.py`` -> three levels up)."""
    return pathlib.Path(__file__).resolve().parents[3]


def default_targets() -> List[pathlib.Path]:
    """The standard scan set, filtered to directories that exist."""
    root = repo_root()
    return [root / name for name in DEFAULT_TARGET_NAMES if (root / name).is_dir()]


def report_to_json(findings: Sequence[Finding], files: int) -> str:
    """The deterministic ``--json`` payload (sorted findings, counts)."""
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    payload = {
        "version": JSON_VERSION,
        "files": files,
        "findings": [f.to_dict() for f in sorted(findings)],
        "counts": counts,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def findings_from_json(text: str) -> List[Finding]:
    """Parse a ``--json`` payload back into findings (schema round-trip)."""
    payload = json.loads(text)
    if payload.get("version") != JSON_VERSION:
        raise ValueError(f"unsupported lint report version {payload.get('version')!r}")
    return [Finding.from_dict(item) for item in payload["findings"]]


def render_catalog() -> str:
    """The rule catalog (``--list``): id, severity, summary per rule."""
    lines = ["repro lint rule catalog"]
    for rule in all_rules():
        lines.append(f"  {rule.id:<20} [{rule.severity}] {rule.summary}")
    lines.append(
        "suppress one finding with a trailing "
        "`# repro-lint: ignore[rule-id]` comment"
    )
    return "\n".join(lines)


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to a (sub)parser."""
    parser.add_argument(
        "paths", nargs="*", type=pathlib.Path,
        help="files/directories to lint (default: src tests benchmarks)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the findings report as JSON",
    )
    parser.add_argument(
        "--selftest", action="store_true",
        help="run the seeded-violation corpus: each fixture must be "
        "caught by exactly its rule (the diagonal)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_rules",
        help="print the rule catalog and exit",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute ``repro lint`` for parsed ``args``; returns the exit code."""
    if args.list_rules:
        print(render_catalog())
        return 0
    if args.selftest:
        from .selftest import render_selftest, run_selftest

        results = run_selftest()
        print(render_selftest(results))
        return 0 if all(r.ok for r in results) else 1

    targets = list(args.paths) or default_targets()
    if not targets:
        print("no lint targets found", file=sys.stderr)
        return 2
    missing = [t for t in targets if not t.exists()]
    if missing:
        print(
            f"no such path(s): {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2
    try:
        findings = lint_paths(targets)
    except SyntaxError as exc:
        print(f"cannot parse: {exc}", file=sys.stderr)
        return 2
    files = len(iter_python_files(targets))
    if args.json:
        print(report_to_json(findings, files))
    else:
        for finding in findings:
            print(finding)
        if not findings:
            print(
                f"lint clean: {files} file(s), "
                f"{len(all_rules())} rule(s), 0 findings"
            )
    if findings:
        print(f"{len(findings)} lint finding(s)", file=sys.stderr)
        return 1
    return 0
