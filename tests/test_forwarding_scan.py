"""The checkers' shared forwarding walk (`repro.net.forwarding`).

`scan` is differentially tested against networkx on random small
forwarding graphs: the loops it reports are real cycles, it reports one
exactly when a cycle is reachable from the roots, and it names every
reachable dead end once.  `live_match` and `forwarding_graph` get unit
cases for the fall-through rule they encode.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.net.fib import LOCAL, FibEntry
from repro.net.forwarding import (
    DEAD_END,
    LOOP,
    forwarding_graph,
    live_match,
    scan,
)
from repro.net.ip import Prefix
from repro.topology.graph import reachable

#: node i's successor list: None (no live match), [] (no next hop) or hops
_NODE = st.one_of(
    st.none(),
    st.just([]),
    st.lists(st.integers(0, 7), min_size=1, max_size=3, unique=True),
)


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, 8))
    succ = {}
    for i in range(n):
        hops = draw(_NODE)
        if hops is None:
            continue
        # hops beyond n name switches with no live match at all
        entry = FibEntry(
            Prefix(f"10.0.{i}.0/24"), tuple(f"s{h}" for h in hops) or (LOCAL,),
            source="test",
        )
        succ[f"s{i}"] = [(f"s{h}", entry) for h in hops]
    roots = draw(st.lists(st.sampled_from([f"s{i}" for i in range(n)]), max_size=6))
    delivers = draw(st.sets(st.sampled_from([f"s{i}" for i in range(n)])))
    return succ, roots, delivers


@settings(max_examples=300, deadline=None)
@given(graph=_graphs())
def test_scan_agrees_with_networkx(graph):
    succ, roots, delivers = graph
    defects = list(scan(succ.get, roots, delivers))
    digraph = nx.DiGraph()
    digraph.add_nodes_from(roots)
    for node, edges in succ.items():
        digraph.add_edges_from((node, hop) for hop, _ in edges)
    seen = set(roots).union(*(nx.descendants(digraph, r) for r in roots))

    loops = [d for d in defects if d.kind == LOOP]
    for loop in loops:
        members = loop.nodes
        assert set(members) <= seen
        assert len(set(members)) == len(members) == len(loop.cycle)
        for (node, after, entry), expected_after in zip(
            loop.cycle, members[1:] + members[:1]
        ):
            assert after == expected_after
            assert (after, entry) in succ[node]
    has_cycle = any(
        len(component) > 1 or digraph.has_edge(node, node)
        for component in nx.strongly_connected_components(digraph.subgraph(seen))
        for node in component
    )
    assert bool(loops) == has_cycle

    dead = sorted(
        node for node in seen
        if succ.get(node) is None or (not succ[node] and node not in delivers)
    )
    holes = [d.nodes for d in defects if d.kind == DEAD_END]
    assert sorted(nodes[-1] for nodes in holes) == dead
    for nodes in holes:
        # the reported walk is a real path from a root
        assert nodes[0] in roots
        for node, after in zip(nodes, nodes[1:]):
            assert after in {hop for hop, _ in succ[node]}


def test_scan_is_lazy_and_ordered():
    entry = FibEntry(Prefix("10.0.0.0/24"), ("b",), source="test")
    edges = {"a": [("b", entry)], "b": [("a", entry)], "c": [("x", entry)]}
    walk = scan(edges.get, ["a", "c"], set())
    assert next(walk).nodes == ("a", "b")
    assert next(walk).nodes == ("c", "x")
    assert list(walk) == []


def test_live_match_falls_through_dead_entries():
    longer = FibEntry(Prefix("10.11.0.0/24"), ("down",), source="linkstate")
    backup = FibEntry(Prefix("10.11.0.0/16"), ("down", "up"), source="static")
    assert live_match([longer, backup], lambda peer: peer == "up") == (
        backup, ("up",), 1
    )
    assert live_match([longer], lambda peer: False) == (None, (), 1)
    local = FibEntry(Prefix("10.11.0.0/24"), (LOCAL,), source="connected")
    assert live_match([local], lambda peer: False) == (local, (LOCAL,), 0)


def test_forwarding_graph_edges_and_delivery():
    local = FibEntry(Prefix("10.11.0.0/24"), (LOCAL,), source="connected")
    routed = FibEntry(Prefix("10.11.0.0/24"), ("tor",), source="linkstate")
    edges, delivers = forwarding_graph([
        ("tor", (local, (LOCAL,), 0)),
        ("agg", (routed, ("tor",), 0)),
        ("hole", (None, (), 2)),
    ])
    assert edges == {"tor": [], "agg": [("tor", routed)]}
    assert delivers == {"tor"}


def test_reachable_follows_the_neighbour_function():
    graph = {"a": ["b"], "b": ["c"], "c": [], "d": ["a"]}
    assert reachable("a", graph.__getitem__) == {"a", "b", "c"}
    assert reachable("d", graph.__getitem__) == {"a", "b", "c", "d"}
