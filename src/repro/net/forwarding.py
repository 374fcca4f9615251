"""The checkers' forwarding walk: one reading of the fall-through rule.

A switch forwards on the first longest-prefix match that still has a
live next hop (§II-B).  The invariant suite (:mod:`repro.check`), the
static verifier (:mod:`repro.verify`) and its witness replay ask that
rule which entry wins (:func:`live_match`), what graph the winners form
toward one destination (:func:`forwarding_graph`), and where a walk
over it loops or dead-ends (:func:`scan`).

Each caller keeps its own chain source on purpose: the invariants
enumerate ``Fib.entries()`` by brute force, the replay reads the
(possibly instance-patched) ``Fib.matches``, the static model walks its
symbolic FIBs.  The data plane's own walk, ``SwitchNode._resolve_walk``,
is the system under test and stays apart: the ``fib-consistency``
invariant compares it against :func:`live_match`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .fib import LOCAL, FibEntry, NextHop

#: first live match: (entry, its live next hops, dead matches skipped
#: before it); ``(None, (), n)`` is a black hole
Match = Tuple[Optional[FibEntry], Tuple[NextHop, ...], int]
#: forwarding graph: switch -> [(next hop, entry used)]
ForwardingEdges = Dict[str, List[Tuple[str, FibEntry]]]
#: a switch's out-edges, or None when it has no live match
Successors = Callable[[str], Optional[List[Tuple[str, FibEntry]]]]

LOOP = "loop"
DEAD_END = "blackhole"


def live_match(chain: Iterable[FibEntry], alive: Callable[[str], bool]) -> Match:
    """The first entry of ``chain`` with a live next hop, plus its live
    hops (``LOCAL`` counts as live — delivery) and its depth."""
    depth = 0
    for entry in chain:
        live = tuple(
            nh for nh in entry.next_hops if nh == LOCAL or alive(str(nh))
        )
        if live:
            return entry, live, depth
        depth += 1
    return None, (), depth


def out_edges(match: Match) -> Optional[List[Tuple[str, FibEntry]]]:
    """A switch's edges under its live match: ``(next hop, entry)`` per
    live hop, ``LOCAL`` left out; None without a live match."""
    entry, live, _depth = match
    if entry is None:
        return None
    return [(str(nh), entry) for nh in live if nh != LOCAL]


def forwarding_graph(
    matches: Iterable[Tuple[str, Match]],
) -> Tuple[ForwardingEdges, Set[str]]:
    """:func:`out_edges` of every switch with a live match, plus the
    switches that deliver (their match holds ``LOCAL``)."""
    edges: ForwardingEdges = {}
    delivers: Set[str] = set()
    for switch, match in matches:
        switch_edges = out_edges(match)
        if switch_edges is None:
            continue
        edges[switch] = switch_edges
        if LOCAL in match[1]:
            delivers.add(switch)
    return edges, delivers


@dataclass(frozen=True)
class Defect:
    """One loop or dead end a :func:`scan` found."""

    kind: str  # LOOP | DEAD_END
    #: cycle members in forwarding order, or the walk ending at the hole
    nodes: Tuple[str, ...]
    #: for loops: the (node, next hop, entry) triples of the cycle
    cycle: Tuple[Tuple[str, str, FibEntry], ...] = ()


def scan(
    succ: Successors, roots: Iterable[str], delivers: AbstractSet[str]
) -> Iterator[Defect]:
    """Colored DFS over a forwarding graph from ``roots``, in order.

    Yields each loop (a back edge to the walk) and each dead end (a
    switch with no live match, or with no next hop that does not
    deliver) as it is found; every switch is visited once, so a dead end
    is reported once.  Lazy: callers cap it with ``itertools.islice``.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[str, int] = {}
    path: List[str] = []
    # the roots are the out-edges of a virtual source below the walk
    stack: List[Iterator[Tuple[str, Any]]] = [
        iter([(root, None) for root in roots])
    ]
    while stack:
        for nh, _entry in stack[-1]:
            state = color.get(nh, WHITE)
            if state == GRAY:
                members = tuple(path[path.index(nh):])
                yield Defect(LOOP, members, tuple(
                    (node, after, next(
                        entry for hop, entry in succ(node) or ()
                        if hop == after
                    ))
                    for node, after in zip(members, members[1:] + members[:1])
                ))
            elif state == WHITE:
                nh_succ = succ(nh)
                if not nh_succ:
                    color[nh] = BLACK
                    if nh_succ is None or nh not in delivers:
                        yield Defect(DEAD_END, tuple(path) + (nh,))
                    continue
                color[nh] = GRAY
                path.append(nh)
                stack.append(iter(nh_succ))
                break
        else:
            stack.pop()
            if path:
                color[path.pop()] = BLACK
