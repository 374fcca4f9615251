"""The rule catalog: each simulation-safety convention as a pluggable rule.

A :class:`Rule` packages one convention — id, severity, a one-line
summary (rendered into the catalog by ``repro lint --list``), per-path
scoping, and the AST hooks it listens on.  Rules register themselves
into the module-level :data:`REGISTRY` via the :func:`register`
decorator; the engine (:mod:`repro.lint.engine`) parses each file once
and fans every node event out to all rules in scope for that path.

Scoping speaks in *path suffixes and directory components* so the
analyzer gives identical verdicts whether invoked with absolute paths,
repo-relative paths, or from inside ``src/``.

The five determinism rules (``wall-clock``, ``perf-counter``,
``module-random``, ``set-iteration``, ``span-id``) come first and keep
their historical ids; the remaining rules extend the analysis to
serialization canonicality, seed discipline, and worker-pool
picklability (DESIGN.md §12).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Tuple, Type

from .findings import SEV_ERROR, Finding

# ------------------------------------------------------------ path scoping


def normalize_path(path: str) -> str:
    """Forward-slash form of ``path`` (scoping matches on components)."""
    return str(path).replace("\\", "/")


def _has_dir(path: str, prefix: str) -> bool:
    """True when ``prefix`` (a ``/``-joined component run, e.g.
    ``src/repro/check``) appears on a component boundary in ``path``."""
    return ("/" + path).find("/" + prefix + "/") >= 0 or path.startswith(
        prefix + "/"
    )


def _in_repro_source(path: str) -> bool:
    """True for files of the ``repro`` package itself (``src/repro/...``),
    as opposed to tests, benchmarks, or tools."""
    return _has_dir(path, "src/repro") or path.startswith("repro/")


def _dotted(node: ast.AST) -> str:
    """The dotted name of an attribute/name chain ('' if not one)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_bare_set(node: ast.AST) -> bool:
    """A set display, set comprehension, or set()/frozenset() call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        return isinstance(func, ast.Name) and func.id in ("set", "frozenset")
    return False


def _is_dict_view(node: ast.AST) -> bool:
    """A call to ``.items()`` / ``.keys()`` / ``.values()``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("items", "keys", "values")
        and not node.args
        and not node.keywords
    )


# ------------------------------------------------------------ rule context


class Context:
    """Per-file state the engine threads through every rule hook."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []
        #: line numbers of enclosing ``for`` loops iterating a dict view
        #: (maintained by the engine; consumed by heappush-unsorted)
        self.dict_view_loops: List[int] = []

    def add(self, rule: "Rule", node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 0),
                rule=rule.id,
                message=message,
                severity=rule.severity,
            )
        )


# ------------------------------------------------------------ rule base


class Rule:
    """One pluggable convention.

    Subclasses set :attr:`id` / :attr:`summary`, override
    :meth:`applies_to` for path scoping, and implement whichever hooks
    they need.  Hooks must be side-effect-free apart from
    ``ctx.add(...)`` — the engine calls every in-scope rule from a
    single AST walk.
    """

    #: stable rule identifier (used in findings, suppressions, fixtures)
    id: str = ""
    #: one-line description for the catalog and DESIGN.md §12 table
    summary: str = ""
    severity: str = SEV_ERROR

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (normalized, ``/``-joined)."""
        return True

    # --- hooks (no-ops by default) ------------------------------------
    def on_call(self, node: ast.Call, ctx: Context) -> None:
        """Every ``ast.Call`` in the module."""

    def on_iteration(self, node: ast.AST, iter_node: ast.AST, ctx: Context) -> None:
        """Every ``for``/``async for`` statement and comprehension
        generator; ``iter_node`` is the iterable expression."""

    def on_compare(self, node: ast.Compare, ctx: Context) -> None:
        """Every comparison expression."""

    def on_function(self, node: ast.AST, ctx: Context) -> None:
        """Every function/lambda definition (sync or async)."""

    def on_import_from(self, node: ast.ImportFrom, ctx: Context) -> None:
        """Every ``from ... import ...`` statement."""


#: rule id -> singleton instance, in registration order
REGISTRY: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and index the rule by id."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"{cls.__name__} has no rule id")
    if rule.id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    REGISTRY[rule.id] = rule
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id (deterministic catalog order)."""
    return [REGISTRY[rule_id] for rule_id in sorted(REGISTRY)]


def rules_by_id(ids: Iterable[str]) -> List[Rule]:
    """Resolve rule ids to instances (raises ``KeyError`` on unknowns)."""
    return [REGISTRY[rule_id] for rule_id in ids]


# =================================================================
# determinism rules
# =================================================================


@register
class WallClockRule(Rule):
    id = "wall-clock"
    summary = (
        "wall-clock reads (time.time, datetime.now, ...); simulated time "
        "comes from Simulator.now"
    )

    #: dotted-call suffixes that read a wall clock.  ``time.monotonic``
    #: is deliberately absent: the campaign runner and CLI use it for
    #: operator-facing timeout bookkeeping that never feeds back into
    #: simulated behaviour.
    CALLS = (
        "date.today",
        "datetime.now",
        "datetime.today",
        "datetime.utcnow",
        "time.time",
        "time.time_ns",
    )

    def on_call(self, node: ast.Call, ctx: Context) -> None:
        dotted = _dotted(node.func)
        for suffix in self.CALLS:
            if dotted == suffix or dotted.endswith("." + suffix):
                ctx.add(
                    self, node,
                    f"{dotted}() reads the wall clock; use the simulated "
                    f"clock (Simulator.now)",
                )
                return


@register
class PerfCounterRule(Rule):
    id = "perf-counter"
    summary = (
        "perf_counter stopwatching outside the benchmark harness "
        "(benchmarks/, repro/bench.py)"
    )

    CALLS = ("time.perf_counter", "time.perf_counter_ns")

    def applies_to(self, path: str) -> bool:
        if path.endswith("repro/bench.py"):
            return False
        return not any(
            part == "benchmarks" for part in path.split("/")
        )

    def on_call(self, node: ast.Call, ctx: Context) -> None:
        dotted = _dotted(node.func)
        for suffix in self.CALLS:
            if dotted == suffix or dotted.endswith("." + suffix):
                ctx.add(
                    self, node,
                    f"{dotted}() stopwatches wall time; only the benchmark "
                    f"harness (benchmarks/, repro/bench.py) may time itself",
                )
                return


@register
class ModuleRandomRule(Rule):
    id = "module-random"
    summary = (
        "calls through the shared `random` module RNG; draw from seeded "
        "repro.sim.randomness streams"
    )

    #: attributes of ``random`` that are fine to call (seeded or
    #: explicitly operator-facing RNG construction)
    ALLOWED = ("Random", "SystemRandom")

    def applies_to(self, path: str) -> bool:
        # sim/randomness.py is the one place allowed to touch `random`
        return not path.endswith("sim/randomness.py")

    def on_call(self, node: ast.Call, ctx: Context) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
            and func.attr not in self.ALLOWED
        ):
            ctx.add(
                self, node,
                f"random.{func.attr}() uses the shared module RNG; draw "
                f"from a seeded repro.sim.randomness stream",
            )


@register
class SetIterationRule(Rule):
    id = "set-iteration"
    summary = (
        "iteration over a bare set display/call: hash-order dependent "
        "under unpinned PYTHONHASHSEED"
    )

    def on_iteration(self, node: ast.AST, iter_node: ast.AST, ctx: Context) -> None:
        if _is_bare_set(iter_node):
            ctx.add(
                self, node,
                "iteration over a bare set is hash-order dependent; "
                "sort it (or iterate something ordered)",
            )


@register
class SpanIdRule(Rule):
    id = "span-id"
    summary = (
        "id()/hash() in the span/export layer; identity must come from "
        "derive_seed or sequence counters"
    )

    #: modules whose *output* (span ids, export lanes) must be
    #: byte-identical across processes
    STRICT_SUFFIXES = ("obs/spans.py", "obs/export.py")

    def applies_to(self, path: str) -> bool:
        return path.endswith(self.STRICT_SUFFIXES)

    def on_call(self, node: ast.Call, ctx: Context) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("id", "hash"):
            ctx.add(
                self, node,
                f"{func.id}() depends on interpreter object identity; "
                f"span/export identity must derive from "
                f"sim.randomness.derive_seed or sequence counters",
            )


# =================================================================
# simulation-safety rules (new in repro.lint)
# =================================================================


@register
class UnsortedJsonRule(Rule):
    id = "unsorted-json"
    summary = (
        "json.dump(s) without sort_keys=True on report/bundle "
        "serialization paths; byte-identity needs canonical key order"
    )

    #: the serialization paths whose output the replay/report machinery
    #: compares byte-for-byte
    SCOPES = (
        "repro/campaign",
        "repro/check",
        "repro/obs",
        "repro/verify",
    )

    def applies_to(self, path: str) -> bool:
        return path.endswith("repro/bench.py") or any(
            _has_dir(path, scope) or _has_dir(path, "src/" + scope)
            for scope in self.SCOPES
        )

    def on_call(self, node: ast.Call, ctx: Context) -> None:
        dotted = _dotted(node.func)
        if dotted not in ("json.dump", "json.dumps") and not dotted.endswith(
            (".json.dump", ".json.dumps")
        ):
            return
        for keyword in node.keywords:
            if keyword.arg == "sort_keys":
                value = keyword.value
                if isinstance(value, ast.Constant) and value.value is True:
                    return
                break
        ctx.add(
            self, node,
            f"{dotted}() without sort_keys=True on a serialization path; "
            f"reports and bundles must be byte-identical across runs",
        )


@register
class SimTimeEqRule(Rule):
    id = "sim-time-eq"
    summary = (
        "== / != between simulated time (.now) and a computed time "
        "expression; float arithmetic makes exact equality fragile"
    )

    def applies_to(self, path: str) -> bool:
        # tests deliberately pin exact (integer) timestamps; the model
        # itself must never branch on exact equality with derived times
        return _in_repro_source(path)

    @staticmethod
    def _mentions_now(expr: ast.AST) -> bool:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Attribute) and sub.attr == "now":
                return True
            if isinstance(sub, ast.Name) and sub.id == "now":
                return True
        return False

    @staticmethod
    def _is_computed(expr: ast.AST) -> bool:
        """Arithmetic or a call anywhere in the operand: the value is
        *derived*, so float equality depends on rounding history.
        Comparisons between stored timestamps (names, attributes,
        subscripts) stay exact and legal."""
        return any(
            isinstance(sub, (ast.BinOp, ast.Call)) for sub in ast.walk(expr)
        )

    def on_compare(self, node: ast.Compare, ctx: Context) -> None:
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        operands = [node.left, *node.comparators]
        if not any(self._mentions_now(operand) for operand in operands):
            return
        if any(self._is_computed(operand) for operand in operands):
            ctx.add(
                self, node,
                "== / != between simulated time and a computed time "
                "expression; float clock arithmetic makes exact equality "
                "timing-fragile — use ordered comparison or an explicit "
                "tolerance",
            )


@register
class UnseededRngRule(Rule):
    id = "unseeded-rng"
    summary = (
        "random.Random(...) seeded from anything but "
        "sim.randomness.derive_seed"
    )

    def applies_to(self, path: str) -> bool:
        return _in_repro_source(path)

    def on_call(self, node: ast.Call, ctx: Context) -> None:
        if _dotted(node.func) != "random.Random":
            return
        if len(node.args) == 1 and not node.keywords:
            arg = node.args[0]
            if isinstance(arg, ast.Call):
                seed_fn = _dotted(arg.func)
                if seed_fn == "derive_seed" or seed_fn.endswith(".derive_seed"):
                    return
        ctx.add(
            self, node,
            "random.Random(...) must be seeded from "
            "sim.randomness.derive_seed(master_seed, name) so streams "
            "stay independent and replayable",
        )


@register
class MutableDefaultRule(Rule):
    id = "mutable-default"
    summary = "mutable default argument ([] / {} / set()) in repro source"

    def applies_to(self, path: str) -> bool:
        return _in_repro_source(path)

    @staticmethod
    def _is_mutable(default: ast.AST) -> bool:
        if isinstance(default, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(default, ast.Call):
            func = default.func
            return isinstance(func, ast.Name) and func.id in (
                "list", "dict", "set", "bytearray",
            )
        return False

    def on_function(self, node: ast.AST, ctx: Context) -> None:
        args = getattr(node, "args", None)
        if args is None:
            return
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable(default):
                ctx.add(
                    self, node,
                    "mutable default argument is shared across calls and "
                    "across trials in one worker; default to None and "
                    "construct inside the body",
                )
                return


@register
class ExecutorLambdaRule(Rule):
    id = "executor-lambda"
    summary = (
        "lambda submitted to an executor pool; unpicklable under "
        "ProcessPoolExecutor worker fan-out"
    )

    def applies_to(self, path: str) -> bool:
        return _in_repro_source(path)

    def on_call(self, node: ast.Call, ctx: Context) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in ("submit", "map")):
            return
        if any(isinstance(arg, ast.Lambda) for arg in node.args):
            ctx.add(
                self, node,
                f".{func.attr}(lambda ...) cannot be pickled to a "
                f"ProcessPoolExecutor worker; submit a module-level "
                f"function instead",
            )


@register
class HeappushUnsortedRule(Rule):
    id = "heappush-unsorted"
    summary = (
        "heappush fed from dict-view iteration without sorted(); heap "
        "tie-break order then depends on insertion history"
    )

    def applies_to(self, path: str) -> bool:
        return _in_repro_source(path)

    def on_call(self, node: ast.Call, ctx: Context) -> None:
        if not ctx.dict_view_loops:
            return
        dotted = _dotted(node.func)
        if dotted == "heappush" or dotted.endswith(".heappush"):
            ctx.add(
                self, node,
                "heappush inside iteration over a dict view: equal-priority "
                "entries inherit insertion order — wrap the iterable in "
                "sorted(...) so the heap is populated canonically",
            )


@register
class FlowDictIterationRule(Rule):
    id = "flow-dict-iteration"
    summary = (
        "unsorted iteration over a dict view inside the fluid backend "
        "(repro/sim/flow); flow-id dict order must be canonical"
    )

    def applies_to(self, path: str) -> bool:
        # the fluid backend accumulates floats and schedules events per
        # flow; every iteration order over a flow-keyed dict can reach a
        # rate trajectory, so the whole package must iterate canonically
        return _has_dir(path, "repro/sim/flow") or _has_dir(
            path, "src/repro/sim/flow"
        )

    def on_iteration(self, node: ast.AST, iter_node: ast.AST, ctx: Context) -> None:
        if _is_dict_view(iter_node):
            ctx.add(
                self, node,
                "iteration over a dict view in the fluid backend inherits "
                "insertion order; float accumulation and event scheduling "
                "make that order observable — iterate sorted(names) and "
                "index, or wrap .items() in sorted(...)",
            )


@register
class GcCallRule(Rule):
    id = "gc-call"
    summary = (
        "gc.* call or `from gc import` outside the trial heap lifetime "
        "(repro/experiments/common.py)"
    )

    def applies_to(self, path: str) -> bool:
        # trial_heap is the one place that pauses, freezes or collects:
        # anything else touching the collector would fight it
        return _in_repro_source(path) and not path.endswith(
            "repro/experiments/common.py"
        )

    def on_call(self, node: ast.Call, ctx: Context) -> None:
        dotted = _dotted(node.func)
        if dotted.startswith("gc."):
            ctx.add(
                self, node,
                f"{dotted}() manages the collector outside the trial heap "
                f"lifetime; run the trial inside experiments.common.trial_heap",
            )

    def on_import_from(self, node: ast.ImportFrom, ctx: Context) -> None:
        if node.module == "gc" and not node.level:
            ctx.add(
                self, node,
                "`from gc import ...` manages the collector outside the "
                "trial heap lifetime (experiments.common.trial_heap)",
            )


@register
class UnusedSuppressionRule(Rule):
    id = "unused-suppression"
    summary = (
        "`# repro-lint: ignore[...]` that suppressed nothing (stale or "
        "misspelled rule id)"
    )

    # engine-implemented: the engine emits these findings after matching
    # suppressions against raw findings; the rule class exists so the id
    # appears in the catalog, the selftest diagonal, and --list output.


#: the five determinism rules: no wall clock, no stopwatch outside the
#: bench harness, no shared module RNG, no set-order iteration, no
#: object identity in span/export output
DETERMINISM_RULE_IDS: Tuple[str, ...] = (
    "wall-clock",
    "perf-counter",
    "module-random",
    "set-iteration",
    "span-id",
)


__all__ = [
    "Context",
    "DETERMINISM_RULE_IDS",
    "REGISTRY",
    "Rule",
    "all_rules",
    "normalize_path",
    "register",
    "rules_by_id",
]
