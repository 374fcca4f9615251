"""Tests for the LSDB and the ECMP SPF computation.

The SPF is cross-validated against networkx's shortest paths on random
connected graphs: distances must match, and our first-hop sets must be
exactly the first hops of all shortest paths.
"""

from __future__ import annotations

import pickle

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.dataplane.network import Network
from repro.dataplane.params import NetworkParams
from repro.failures.injector import FailureEvent, schedule_failures
from repro.net.ip import Prefix
from repro.routing.lsdb import Lsa, Lsdb
from repro.routing.spf import compute_routes
from repro.routing.spf_cache import SpfCacheStats
from repro.sim.engine import Simulator
from repro.sim.flow.warmstart import warm_start_linkstate
from repro.sim.units import milliseconds, seconds
from repro.topology.fattree import fat_tree


def lsa(origin, neighbors, prefixes=(), seq=1):
    return Lsa(
        origin=origin,
        seq=seq,
        neighbors=tuple(neighbors),
        prefixes=tuple(Prefix(p) for p in prefixes),
    )


def assert_meets_plain_tuple(db, rebuilt):
    """A fingerprint caches its hash, but stays interchangeable with a
    plain tuple of the same content — ``graph_info`` / ``SpfCache`` keys
    built either way must still meet."""
    patched, fresh = db.fingerprint(), rebuilt.fingerprint()
    plain = tuple(fresh)
    assert type(plain) is tuple and patched == plain and plain == patched
    assert hash(patched) == hash(fresh) == hash(plain)
    assert hash(patched) == hash(plain)  # the cached value, asked twice
    assert {plain: "by-plain"}[patched] == "by-plain"
    assert {patched: "by-fingerprint"}[plain] == "by-fingerprint"
    # str hashes are per-process: a pickle carries content, never the cache
    clone = pickle.loads(pickle.dumps(patched))
    assert clone == patched and type(clone) is type(patched)
    assert "_hash" in vars(patched) and "_hash" not in vars(clone)


class TestLsdb:
    def test_insert_new(self):
        db = Lsdb()
        assert db.insert(lsa("a", ["b"]))
        assert db.get("a") is not None
        assert len(db) == 1

    def test_stale_rejected(self):
        db = Lsdb()
        db.insert(lsa("a", ["b"], seq=5))
        assert not db.insert(lsa("a", ["c"], seq=4))
        assert not db.insert(lsa("a", ["c"], seq=5))
        assert db.get("a").neighbors == ("b",)

    def test_fresher_replaces(self):
        db = Lsdb()
        db.insert(lsa("a", ["b"], seq=1))
        assert db.insert(lsa("a", ["c"], seq=2))
        assert db.get("a").neighbors == ("c",)

    def test_two_way_check(self):
        """A link is usable only when both ends advertise it."""
        db = Lsdb()
        db.insert(lsa("a", ["b", "c"]))
        db.insert(lsa("b", ["a"]))
        db.insert(lsa("c", []))  # c does not confirm a
        assert list(db.two_way_neighbors("a")) == ["b"]

    def test_two_way_unknown_origin(self):
        assert list(Lsdb().two_way_neighbors("ghost")) == []

    def test_fingerprint_patched_across_inserts(self):
        """A materialized fingerprint survives inserts unchanged in value
        terms: it must always equal a from-scratch recompute."""
        db = Lsdb()
        db.insert(lsa("a", ["b"], seq=1))
        db.insert(lsa("b", ["a"], ["10.11.0.0/24"], seq=1))
        before = db.fingerprint()  # materialize, then patch in place
        db.insert(lsa("c", ["a"], seq=1))          # new origin
        db.insert(lsa("a", ["b", "c"], seq=2))     # content change
        seq_only = db.fingerprint()
        db.insert(lsa("b", ["a"], ["10.11.0.0/24"], seq=9))  # seq-only
        assert db.fingerprint() is seq_only
        rebuilt = Lsdb()
        for entry in db.all():
            rebuilt.insert(entry)
        assert db.fingerprint() == rebuilt.fingerprint()
        assert db.fingerprint() != before
        assert_meets_plain_tuple(db, rebuilt)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from("abcde"),                 # origin
            st.integers(min_value=1, max_value=4),    # seq
            st.lists(st.sampled_from("abcde"), max_size=3),  # neighbors
        ),
        max_size=20,
    ),
    st.integers(min_value=0, max_value=20),
)
def test_fingerprint_incremental_matches_recompute(inserts, read_at):
    """The bisect-patched fingerprint is indistinguishable from the lazy
    full recompute, no matter when it gets materialized."""
    db = Lsdb()
    for i, (origin, seq, neighbors) in enumerate(inserts):
        if i == read_at:
            db.fingerprint()  # materialize mid-stream: later inserts patch
        db.insert(lsa(origin, neighbors, seq=seq))
    rebuilt = Lsdb()
    for entry in db.all():
        rebuilt.insert(entry)
    assert db.fingerprint() == rebuilt.fingerprint()
    assert_meets_plain_tuple(db, rebuilt)


def test_spf_wave_hashes_each_fingerprint_at_most_once(monkeypatch):
    """After a flood every switch holds its own patched fingerprint and
    keys several lookups per SPF run on it (stats set, route oracle):
    each object's content may be hashed once, the rest must reuse it."""
    fingerprint_type = type(Lsdb().fingerprint())
    cached_hash = fingerprint_type.__hash__
    content_hashes, requests, alive = {}, [], []

    def counting_hash(self):
        requests.append(id(self))
        if "_hash" not in vars(self):
            alive.append(self)  # pins the id for the whole test
            content_hashes[id(self)] = content_hashes.get(id(self), 0) + 1
        return cached_hash(self)

    sim = Simulator()
    network = Network(fat_tree(4), sim, NetworkParams())
    protocols = warm_start_linkstate(network, advertise_loopbacks=True)
    monkeypatch.setattr(fingerprint_type, "__hash__", counting_hash)
    schedule_failures(
        network,
        [FailureEvent(sim.now + milliseconds(100), "agg-0-0", "tor-0-0")],
    )
    sim.run(until=sim.now + seconds(2))

    assert sum(p.stats.spf_runs for p in protocols.values()) >= len(protocols)
    assert len(content_hashes) >= len(protocols)  # one patched tuple each
    assert set(content_hashes.values()) == {1}
    assert len(requests) > 2 * len(content_hashes)  # ... and it was reused
    assert hash(alive[0]) == hash(tuple(alive[0]))


def test_spf_cache_stats_note_sequence():
    """``note`` answers "has this consumer asked for this key before" —
    pinned on a scripted sequence, with fingerprint-keyed and plain-tuple
    keys of equal content counting as one key."""
    db = Lsdb()
    db.insert(lsa("a", ["b"], ["10.11.0.0/24"]))
    db.insert(lsa("b", ["a"]))
    first = db.fingerprint()
    db.insert(lsa("c", ["a"]))
    second = db.fingerprint()
    keys = [
        ("a", first), ("b", first), ("a", first), ("a", tuple(first)),
        ("a", second), ("b", tuple(first)), ("a", second), ("c", second),
    ]
    stats = SpfCacheStats()
    assert [stats.note(key) for key in keys] == [
        False, False, True, True, False, True, True, False,
    ]
    assert (stats.hits, stats.misses) == (4, 4)


class TestComputeRoutes:
    def build_db(self, edges, prefixes):
        db = Lsdb()
        nodes = {n for e in edges for n in e}
        adj = {n: [] for n in nodes}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        for n in nodes:
            db.insert(lsa(n, adj[n], prefixes.get(n, ())))
        return db

    def test_line_topology(self):
        db = self.build_db(
            [("a", "b"), ("b", "c")], {"c": ["10.11.0.0/24"]}
        )
        routes = compute_routes("a", db)
        assert routes[Prefix("10.11.0.0/24")] == ("b",)

    def test_ecmp_first_hops(self):
        # diamond: a-b-d and a-c-d are equal cost
        db = self.build_db(
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
            {"d": ["10.11.0.0/24"]},
        )
        routes = compute_routes("a", db)
        assert routes[Prefix("10.11.0.0/24")] == ("b", "c")

    def test_shorter_path_beats_ecmp(self):
        db = self.build_db(
            [("a", "b"), ("b", "d"), ("a", "d")],
            {"d": ["10.11.0.0/24"]},
        )
        routes = compute_routes("a", db)
        assert routes[Prefix("10.11.0.0/24")] == ("d",)

    def test_own_prefixes_excluded(self):
        db = self.build_db(
            [("a", "b")], {"a": ["10.11.0.0/24"], "b": ["10.11.1.0/24"]}
        )
        routes = compute_routes("a", db)
        assert Prefix("10.11.0.0/24") not in routes
        assert Prefix("10.11.1.0/24") in routes

    def test_unreachable_prefix_absent(self):
        db = Lsdb()
        db.insert(lsa("a", []))
        db.insert(lsa("z", [], ["10.11.0.0/24"]))
        assert compute_routes("a", db) == {}

    def test_unknown_origin_empty(self):
        assert compute_routes("ghost", Lsdb()) == {}

    def test_anycast_nearest_wins(self):
        db = self.build_db(
            [("a", "b"), ("b", "c")],
            {"b": ["10.11.0.0/24"], "c": ["10.11.0.0/24"]},
        )
        routes = compute_routes("a", db)
        assert routes[Prefix("10.11.0.0/24")] == ("b",)

    def test_one_way_link_unused(self):
        db = Lsdb()
        db.insert(lsa("a", ["b"]))
        db.insert(lsa("b", [], ["10.11.0.0/24"]))  # b doesn't confirm a
        assert compute_routes("a", db) == {}


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=14),
    st.integers(min_value=0, max_value=1_000_000),
)
def test_spf_matches_networkx_on_random_graphs(n, seed):
    graph = nx.gnp_random_graph(n, 0.4, seed=seed)
    if not nx.is_connected(graph):
        # connect components deterministically
        components = [sorted(c) for c in nx.connected_components(graph)]
        for first, second in zip(components, components[1:]):
            graph.add_edge(first[0], second[0])

    db = Lsdb()
    for node in graph.nodes:
        db.insert(
            lsa(
                f"n{node}",
                [f"n{peer}" for peer in graph.neighbors(node)],
                [f"10.11.{node}.0/24"],
            )
        )
    origin = "n0"
    routes = compute_routes(origin, db)

    lengths = nx.single_source_shortest_path_length(graph, 0)
    for node in graph.nodes:
        if node == 0:
            continue
        prefix = Prefix(f"10.11.{node}.0/24")
        assert prefix in routes
        expected_first_hops = {
            f"n{path[1]}"
            for path in nx.all_shortest_paths(graph, 0, node)
        }
        assert set(routes[prefix]) == expected_first_hops
