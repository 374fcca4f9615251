"""Seeded-violation corpus: the analyzer's own falsifiability proof.

Following the PR 3/4 convention (``repro check --selftest`` seeds fault
mutants, ``repro verify --selftest`` seeds wiring defects), the lint
ships one minimal fixture per rule.  ``run_selftest`` proves the
diagonal: every fixture must be caught by **exactly** its rule — firing
nothing means the rule has no teeth; firing extra rules means fixtures
(and by extension real findings) are not attributable.  An analyzer that
passes this matrix is known to detect what it claims and nothing else.

Each fixture also carries a ``clean`` twin — the minimal compliant
rewrite — which must produce no findings at all, so the matrix pins
both the positive and the negative edge of every rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .engine import lint_source

#: path label placing fixtures inside the repro source scope
_SRC = "src/repro/example.py"


@dataclass(frozen=True)
class Fixture:
    """One seeded violation and the single rule that must catch it."""

    rule: str
    #: path label the fixture is linted under (drives rule scoping)
    path: str
    #: minimal source that violates exactly this rule
    source: str
    #: minimal compliant rewrite (must lint clean)
    clean: str


FIXTURES: Tuple[Fixture, ...] = (
    Fixture(
        rule="wall-clock",
        path=_SRC,
        source="import time\nstamp = time.time()\n",
        clean="stamp = sim.now\n",
    ),
    Fixture(
        rule="perf-counter",
        path=_SRC,
        source="import time\nt0 = time.perf_counter()\n",
        clean="import time\ndeadline = time.monotonic()\n",
    ),
    Fixture(
        rule="module-random",
        path=_SRC,
        source="import random\ndraw = random.random()\n",
        clean="draw = streams.stream('failures').random()\n",
    ),
    Fixture(
        rule="set-iteration",
        path=_SRC,
        source="for node in {'a', 'b'}:\n    visit(node)\n",
        clean="for node in sorted({'a', 'b'}):\n    visit(node)\n",
    ),
    Fixture(
        rule="span-id",
        path="src/repro/obs/spans.py",
        source="span_id = id(span)\n",
        clean="span_id = next_sequence()\n",
    ),
    Fixture(
        rule="unsorted-json",
        path="src/repro/check/example.py",
        source="import json\nblob = json.dumps(payload)\n",
        clean="import json\nblob = json.dumps(payload, sort_keys=True)\n",
    ),
    Fixture(
        rule="sim-time-eq",
        path=_SRC,
        source="if engine.now == start + timeout:\n    expire()\n",
        clean="if engine.now >= start + timeout:\n    expire()\n",
    ),
    Fixture(
        rule="unseeded-rng",
        path=_SRC,
        source="import random\nrng = random.Random(42)\n",
        clean=(
            "import random\n"
            "rng = random.Random(derive_seed(master_seed, 'workload'))\n"
        ),
    ),
    Fixture(
        rule="mutable-default",
        path=_SRC,
        source="def collect(events=[]):\n    return events\n",
        clean=(
            "def collect(events=None):\n"
            "    return [] if events is None else events\n"
        ),
    ),
    Fixture(
        rule="executor-lambda",
        path=_SRC,
        source="future = pool.submit(lambda: run_trial(spec))\n",
        clean="future = pool.submit(run_trial, spec)\n",
    ),
    Fixture(
        rule="heappush-unsorted",
        path=_SRC,
        source=(
            "import heapq\n"
            "for name, cost in table.items():\n"
            "    heapq.heappush(heap, (cost, name))\n"
        ),
        clean=(
            "import heapq\n"
            "for name, cost in sorted(table.items()):\n"
            "    heapq.heappush(heap, (cost, name))\n"
        ),
    ),
    Fixture(
        rule="flow-dict-iteration",
        path="src/repro/sim/flow/example.py",
        source=(
            "for name, flow in active.items():\n"
            "    advance(flow)\n"
        ),
        clean=(
            "for name in sorted(active):\n"
            "    advance(active[name])\n"
        ),
    ),
    Fixture(
        rule="gc-call",
        path=_SRC,
        source="import gc\nfrom gc import freeze\ngc.disable()\n",
        clean=(
            "with trial_heap() as settled:\n"
            "    bundle = build_bundle(topology)\n"
            "    settled()\n"
        ),
    ),
    Fixture(
        rule="unused-suppression",
        path=_SRC,
        source="budget = 1  # repro-lint: ignore[wall-clock]\n",
        clean="budget = 1\n",
    ),
)


@dataclass(frozen=True)
class SelftestResult:
    """One row of the diagonal matrix."""

    name: str
    expected: str
    #: rule ids fired by the seeded violation (must be exactly (expected,))
    caught: Tuple[str, ...]
    #: rule ids fired by the compliant twin (must be empty)
    baseline: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.baseline and self.caught == (self.expected,)


def run_selftest() -> List[SelftestResult]:
    """Lint every fixture (and its clean twin) with the full rule set."""
    results: List[SelftestResult] = []
    for fixture in FIXTURES:
        caught = tuple(
            sorted({f.rule for f in lint_source(fixture.source, fixture.path)})
        )
        baseline = tuple(
            sorted({f.rule for f in lint_source(fixture.clean, fixture.path)})
        )
        results.append(
            SelftestResult(
                name=fixture.rule,
                expected=fixture.rule,
                caught=caught,
                baseline=baseline,
            )
        )
    return results


def render_selftest(results: List[SelftestResult]) -> str:
    """ASCII diagonal: one row per fixture, PASS only on exact catches."""
    lines = ["repro lint --selftest — seeded-violation diagonal"]
    for result in results:
        verdict = "PASS" if result.ok else "FAIL"
        caught = ", ".join(result.caught) or "(nothing)"
        lines.append(f"  {verdict}  {result.name:<20} caught: {caught}")
        if result.baseline:
            lines.append(
                f"        clean twin unexpectedly fired: "
                f"{', '.join(result.baseline)}"
            )
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} fixtures caught exactly")
    return "\n".join(lines)
