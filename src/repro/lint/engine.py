"""The analysis engine: one parse per file, every rule in one walk.

``lint_source`` parses a module once, builds the suppression table from
``# repro-lint: ignore[rule-id]`` trailing comments, runs a single
:class:`ast.NodeVisitor` that fans node events out to every rule in
scope for the path, then reconciles findings against suppressions:

* a finding whose line carries a matching suppression is dropped and
  marks that suppression entry *used*;
* a suppression entry that suppressed nothing becomes an
  ``unused-suppression`` finding (stale suppressions rot — they hide
  future regressions at that line);
* ``unused-suppression`` findings are themselves unsuppressible.

Findings come back sorted by ``(path, line, rule)``, so output order is
independent of rule registration order and directory enumeration order.
"""

from __future__ import annotations

import ast
import io
import pathlib
import re
import tokenize
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .findings import Finding
from .rules import (
    Context,
    REGISTRY,
    Rule,
    _is_dict_view,
    all_rules,
    normalize_path,
)

#: trailing-comment suppression marker; accepts a comma-separated rule
#: id list in the brackets
_SUPPRESSION_RE = re.compile(
    r"#\s*repro-lint:\s*ignore\[([A-Za-z0-9_\-\s,]*)\]"
)

#: the meta-rule the engine itself emits
_UNUSED_ID = "unused-suppression"


class Suppression:
    """One rule id listed in one suppression comment."""

    def __init__(self, line: int, rule_id: str) -> None:
        self.line = line
        self.rule_id = rule_id
        self.used = False


def parse_suppressions(source: str) -> List[Suppression]:
    """Every ``(line, rule-id)`` suppression entry in ``source``.

    One comment may list several ids (``ignore[wall-clock, span-id]``);
    each id is tracked independently so a half-stale comment still
    reports its dead half.
    """
    entries: List[Suppression] = []
    seen: Set[Tuple[int, str]] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenizeError, IndentationError):
        # the AST parse will report the syntax problem; no suppressions
        return []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESSION_RE.search(token.string)
        if match is None:
            continue
        lineno = token.start[0]
        for raw in match.group(1).split(","):
            rule_id = raw.strip()
            if rule_id and (lineno, rule_id) not in seen:
                seen.add((lineno, rule_id))
                entries.append(Suppression(lineno, rule_id))
    return entries


class _MultiRuleVisitor(ast.NodeVisitor):
    """Dispatches one AST walk to every active rule's hooks."""

    def __init__(self, ctx: Context, rules: Sequence[Rule]) -> None:
        self.ctx = ctx
        self.rules = rules

    # --- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        for rule in self.rules:
            rule.on_call(node, self.ctx)
        self.generic_visit(node)

    # --- loops (with dict-view context for heap ordering rules) --------
    def _visit_loop(self, node: ast.For | ast.AsyncFor) -> None:
        for rule in self.rules:
            rule.on_iteration(node, node.iter, self.ctx)
        if _is_dict_view(node.iter):
            self.ctx.dict_view_loops.append(node.lineno)
            self.generic_visit(node)
            self.ctx.dict_view_loops.pop()
        else:
            self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node)

    # --- comprehensions ------------------------------------------------
    def _visit_comprehension(
        self,
        node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp,
    ) -> None:
        for comp in node.generators:
            for rule in self.rules:
                rule.on_iteration(node, comp.iter, self.ctx)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node)

    # --- comparisons ---------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        for rule in self.rules:
            rule.on_compare(node, self.ctx)
        self.generic_visit(node)

    # --- imports -------------------------------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for rule in self.rules:
            rule.on_import_from(node, self.ctx)
        self.generic_visit(node)

    # --- function definitions ------------------------------------------
    def _visit_function(self, node: ast.AST) -> None:
        for rule in self.rules:
            rule.on_function(node, self.ctx)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_function(node)


def lint_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one module's source text.

    ``path`` labels findings and drives per-rule scoping; ``rules``
    restricts the pass (default: the full registry).  Raises
    ``SyntaxError`` on unparseable input — callers map that to the
    usage-error exit code.
    """
    normalized = normalize_path(path)
    active = [
        rule
        for rule in (all_rules() if rules is None else rules)
        if rule.applies_to(normalized)
    ]
    known_ids: Set[str] = {rule.id for rule in active}
    tree = ast.parse(source, filename=str(path))
    ctx = Context(str(path))
    _MultiRuleVisitor(ctx, active).visit(tree)

    suppressions = parse_suppressions(source)
    by_line: Dict[Tuple[int, str], Suppression] = {
        (entry.line, entry.rule_id): entry for entry in suppressions
    }
    kept: List[Finding] = []
    for finding in ctx.findings:
        entry = by_line.get((finding.line, finding.rule))
        if entry is not None:
            entry.used = True
        else:
            kept.append(finding)

    if _UNUSED_ID in REGISTRY and (rules is None or _UNUSED_ID in known_ids):
        unused_rule = REGISTRY[_UNUSED_ID]
        for entry in suppressions:
            if entry.used:
                continue
            detail = (
                "suppresses a rule that did not fire here"
                if entry.rule_id in REGISTRY
                else f"unknown rule id {entry.rule_id!r}"
            )
            kept.append(
                Finding(
                    path=str(path),
                    line=entry.line,
                    rule=_UNUSED_ID,
                    message=(
                        f"# repro-lint: ignore[{entry.rule_id}] {detail}; "
                        f"remove the stale suppression"
                    ),
                    severity=unused_rule.severity,
                )
            )
    return sorted(kept)


def iter_python_files(targets: Iterable[pathlib.Path]) -> List[pathlib.Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    files: List[pathlib.Path] = []
    for root in targets:
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
        else:
            files.append(root)
    return files


def lint_paths(
    targets: Iterable[pathlib.Path],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    findings: List[Finding] = []
    for file in iter_python_files(targets):
        findings.extend(lint_source(file.read_text(), str(file), rules=rules))
    return sorted(findings)
