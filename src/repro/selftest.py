"""One diagonal harness for every checker's self-test.

The checker (oracle ``check``), the cross-backend differential
(``flow``), the static verifier (``verify``) and the lint (``lint``)
declare their seeded defects as :class:`Diagonal` records.  A row holds
when the clean run fires nothing and the mutated run is caught under the
diagonal's match mode: ``exact`` (only the expected id fires) or
``includes`` (the expected id is among those fired, and a witness the
diagonal replays reproduces).
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

EXACT = "exact"
INCLUDES = "includes"

#: the ids one run fires: invariants violated, checks refuted, rules hit
Fired = Tuple[str, ...]


@dataclass(frozen=True)
class Diagonal:
    """One seeded defect and the oracle id that must catch it."""

    name: str
    oracle: str
    expected: str
    match: str
    #: diagonals of one oracle with equal keys share one clean run
    baseline: str
    clean: Callable[[], Fired]
    mutated: Callable[[], Fired]
    #: whether the mutated run's witness reproduced (None: no witness)
    replay: Optional[Callable[[], Optional[bool]]] = None


@dataclass(frozen=True)
class Result:
    """One row of the diagonal matrix."""

    name: str
    oracle: str
    expected: str
    match: str
    baseline: Fired
    caught: Fired
    replayed: Optional[bool]

    @property
    def ok(self) -> bool:
        if self.baseline:
            return False
        if self.match == EXACT:
            return self.caught == (self.expected,)
        return self.expected in self.caught and self.replayed is not False


def run(diagonals: Iterable[Diagonal]) -> List[Result]:
    """Every diagonal's row, in the order given."""
    clean: Dict[Tuple[str, str], Fired] = {}
    results = []
    for d in diagonals:
        key = (d.oracle, d.baseline)
        if key not in clean:
            clean[key] = d.clean()
        caught = d.mutated()
        replayed = None if d.replay is None else d.replay()
        results.append(Result(d.name, d.oracle, d.expected, d.match, clean[key], caught, replayed))
    return results


def render(results: Sequence[Result]) -> str:
    """The text matrix, one row per diagonal, then the pass count."""
    lines = [
        f"{'oracle':<7} {'diagonal':<26} {'expected':<22} {'match':<9} "
        f"{'caught':<38} {'replay':<7} verdict"
    ]
    for r in results:
        replay = "n/a" if r.replayed is None else "ok" if r.replayed else "FAILED"
        verdict = "ok" if r.ok else f"FAIL (baseline: {','.join(r.baseline) or 'clean'})"
        lines.append(
            f"{r.oracle:<7} {r.name:<26} {r.expected:<22} {r.match:<9} "
            f"{','.join(r.caught) or '(none)':<38} {replay:<7} {verdict}"
        )
    lines.append(f"{sum(r.ok for r in results)}/{len(results)} diagonals caught as declared")
    return "\n".join(lines)


def to_json(results: Sequence[Result]) -> str:
    """The same matrix as sorted-key JSON."""
    rows = [dict(asdict(r), ok=r.ok) for r in results]
    passed = sum(r.ok for r in results)
    return json.dumps(
        {"diagonals": rows, "passed": passed, "total": len(rows)}, indent=2, sort_keys=True
    )


def run_cli(
    diagonals: Callable[[], List[Diagonal]], as_json: bool, others: Mapping[str, object]
) -> int:
    """A ``--selftest`` flag: 0 every row holds, 1 one fails, 2 one of
    the ``others`` options (flag: value, None when not given or left at
    its default) was given."""
    given = [flag for flag, value in others.items() if value is not None]
    if given:
        print(f"--selftest cannot be combined with {', '.join(given)}", file=sys.stderr)
        return 2
    results = run(diagonals())
    print(to_json(results) if as_json else render(results))
    return 0 if all(r.ok for r in results) else 1
