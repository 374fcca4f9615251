"""Tests for the LSDB and the ECMP SPF computation.

The SPF is cross-validated against networkx's shortest paths on random
connected graphs: distances must match, and our first-hop sets must be
exactly the first hops of all shortest paths.
"""

from __future__ import annotations

import itertools
import pickle

import networkx as nx
import pytest
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
    """A fingerprint meets an equal-content fingerprint of another
    database — rebuilt by inserts, or a view loaded over another base —
    in any dict or set, so ``graph_info`` / ``SpfCache`` keys built
    either way meet; iterated, it is the plain sorted tuple."""
    patched, fresh = db.fingerprint(), rebuilt.fingerprint()
    plain = tuple(fresh)
    assert tuple(patched) == plain == tuple(sorted(plain))
    view = Lsdb()
    view.load(rebuilt)  # freezes rebuilt's content into a new base
    loaded = view.fingerprint()
    assert loaded._base is not patched._base or not plain
    for other in (fresh, loaded):
        assert patched == other and other == patched
        assert hash(patched) == hash(other)
        assert {other: "by-other"}[patched] == "by-other"
        assert {patched: "by-db"}[other] == "by-db"
    # str hashes are per-process: a pickle carries content, never a hash
    assert patched.__reduce__()[1] == (plain,)
    clone = pickle.loads(pickle.dumps(patched))
    assert clone == patched and type(clone) is type(patched)
    assert hash(clone) == hash(patched)


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

    def test_load_into_non_empty_database_raises(self):
        reference = Lsdb()
        reference.insert(lsa("a", ["b"]))
        db = Lsdb()
        db.insert(lsa("b", ["a"]))
        with pytest.raises(ValueError, match="empty database"):
            db.load(reference)
        assert db.get("a") is None and len(db) == 1


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


class PlainLsdb:
    """The reference LSDB: one plain dict per database and the sorted
    entry tuple as its fingerprint, nothing shared."""

    def __init__(self, lsas=()):
        self.by_origin = {entry.origin: entry for entry in lsas}

    def __len__(self):
        return len(self.by_origin)

    def get(self, origin):
        return self.by_origin.get(origin)

    def insert(self, entry):
        old = self.by_origin.get(entry.origin)
        if old is not None and entry.seq <= old.seq:
            return False
        self.by_origin[entry.origin] = entry
        return True

    def all(self):
        return list(self.by_origin.values())

    def two_way_neighbors(self, origin):
        own = self.by_origin.get(origin)
        return [] if own is None else [
            peer for peer in own.neighbors
            if peer in self.by_origin and origin in self.by_origin[peer].neighbors
        ]

    def fingerprint(self):
        return tuple(sorted(
            (e.origin, e.neighbors, e.prefixes) for e in self.by_origin.values()
        ))


_ORIGINS = "abcdef"
_PREFIX_POOL = (Prefix("10.11.0.0/24"), Prefix("10.11.1.0/24"))
_CONTENT = st.tuples(
    st.lists(st.sampled_from(_ORIGINS), max_size=3, unique=True).map(tuple),
    st.lists(st.sampled_from(_PREFIX_POOL), max_size=2, unique=True).map(tuple),
)
#: (database: 0 the reference, 1-3 views, 4 cold-built; kind; origin;
#: content; seq step — 0 is stale)
_VIEW_STEP = st.tuples(
    st.integers(0, 4),
    st.sampled_from(["insert", "refresh", "revert", "new"]),
    st.sampled_from(_ORIGINS),
    _CONTENT,
    st.integers(0, 2),
)


def _assert_views_match(dbs, plains):
    universe = sorted({e.origin for plain in plains for e in plain.all()})
    for db, plain in zip(dbs, plains):
        assert len(db) == len(plain)
        assert list(db.all()) == plain.all()
        for origin in universe + ["ghost"]:
            assert db.get(origin) is plain.get(origin)
            assert list(db.two_way_neighbors(origin)) == plain.two_way_neighbors(origin)
        assert tuple(db.fingerprint()) == plain.fingerprint()
    for (a, plain_a), (b, plain_b) in itertools.product(zip(dbs, plains), repeat=2):
        fp_a, fp_b = a.fingerprint(), b.fingerprint()
        assert (fp_a == fp_b) == (plain_a.fingerprint() == plain_b.fingerprint())
        if fp_a == fp_b:
            assert hash(fp_a) == hash(fp_b)


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(st.sampled_from(_ORIGINS), _CONTENT, min_size=1),
    st.lists(_VIEW_STEP, max_size=25),
)
def test_views_of_one_reference_match_plain_dicts(initial, steps):
    """Views loaded from one reference, the reference and a cold-built
    database, under random inserts, seq-only refreshes, reverts to the
    base content and new origins, each read exactly like its own plain
    dict: no insert is ever visible in another database."""
    reference, cold, plain_ref = Lsdb(), Lsdb(), PlainLsdb()
    for origin, (neighbors, prefixes) in initial.items():
        entry = Lsa(origin, 1, neighbors, prefixes)
        for db in (reference, cold, plain_ref):
            db.insert(entry)
    base = {entry.origin: entry for entry in plain_ref.all()}
    views = [Lsdb() for _ in range(3)]
    for view in views:
        view.load(reference)
    assert views[0]._base is views[2]._base is reference._base
    dbs = [reference, *views, cold]
    plains = [plain_ref] + [PlainLsdb(plain_ref.all()) for _ in range(4)]
    fresh_origins = (f"n{i}" for i in itertools.count())
    _assert_views_match(dbs, plains)
    for target, kind, origin, (neighbors, prefixes), step in steps:
        db, plain = dbs[target], plains[target]
        current = plain.get(origin)
        seq = (current.seq if current else 0) + step
        if kind == "refresh" and current is not None:
            neighbors, prefixes, seq = current.neighbors, current.prefixes, current.seq + 1
        elif kind == "revert" and origin in base:
            neighbors, prefixes = base[origin].neighbors, base[origin].prefixes
            seq = current.seq + 1
        elif kind == "new":
            origin, seq = next(fresh_origins), 1
        before, content = db.fingerprint(), plain.fingerprint()
        entry = Lsa(origin, seq, neighbors, prefixes)
        assert db.insert(entry) == plain.insert(entry)
        if plain.fingerprint() == content:  # a seq-only change keeps the object
            assert db.fingerprint() is before
        _assert_views_match(dbs, plains)


def _fail_one_link_after_warm_start(ports, **warm):
    """Yields a warm-started fat tree's protocol instances twice: right
    after the warm start, then with agg-0-0 -- tor-0-0 failed and the
    flood settled."""
    sim = Simulator()
    network = Network(fat_tree(ports), sim, NetworkParams())
    protocols = warm_start_linkstate(network, **warm)
    yield protocols
    schedule_failures(
        network,
        [FailureEvent(sim.now + milliseconds(100), "agg-0-0", "tor-0-0")],
    )
    sim.run(until=sim.now + seconds(2))
    yield protocols


def test_spf_wave_hashes_each_fingerprint_at_most_once(monkeypatch):
    """Full-content hashing happens once per fabric, not once per switch:
    the warm start hashes each origin's entry once, building the
    reference every switch then shares; a flood patches each switch's
    hash by the old and new entry of each LSA it stores, and every lookup
    an SPF run keys on its fingerprint reuses the stored value."""
    import repro.routing.lsdb as lsdb_module

    hashed = []
    entry_hash = lsdb_module._entry_hash

    def counting(lsa):
        hashed.append(lsa.origin)
        return entry_hash(lsa)

    monkeypatch.setattr(lsdb_module, "_entry_hash", counting)
    stages = _fail_one_link_after_warm_start(4, advertise_loopbacks=True)
    protocols = next(stages)
    assert sorted(hashed) == sorted(protocols)
    hashed.clear()
    next(stages)

    assert sum(p.stats.spf_runs for p in protocols.values()) >= len(protocols)
    assert set(hashed) == {"agg-0-0", "tor-0-0"}
    assert len(hashed) == 2 * 2 * len(protocols)
    fingerprints = [p.lsdb.fingerprint() for p in protocols.values()]
    assert len({id(fp) for fp in fingerprints}) == len(protocols)
    assert len(set(fingerprints)) == 1
    assert len({hash(fp) for fp in fingerprints}) == 1


def test_warm_start_shares_one_base_and_floods_into_overlays():
    """Every warm-started switch views one base through an empty overlay;
    after one downward link failure each overlay holds only the two
    endpoints' LSAs, and every fingerprint equals a cold-built one."""
    stages = _fail_one_link_after_warm_start(8)
    dbs = [protocol.lsdb for protocol in next(stages).values()]
    base = dbs[0]._base
    assert all(db._base is base and not db._overlay for db in dbs)
    assert len({id(db.fingerprint()) for db in dbs}) == 1
    next(stages)

    assert all(db._base is base for db in dbs)
    assert all(sorted(db._overlay) == ["agg-0-0", "tor-0-0"] for db in dbs)
    cold = Lsdb()
    for entry in dbs[0].all():
        cold.insert(entry)
    assert cold.fingerprint()._base is not base
    for db in dbs:
        assert db.fingerprint() == dbs[0].fingerprint() == cold.fingerprint()
        assert hash(db.fingerprint()) == hash(cold.fingerprint())


def test_equal_content_bases_compare_by_differences(monkeypatch):
    """Two warm starts of one fabric are two bases with the same content:
    their views after the same failure are equal, and deciding that
    materializes no fingerprint, however often the memos compare them
    (a second trial in one process used to sort both full contents on
    every SPF-memo hit)."""
    import repro.routing.lsdb as lsdb_module

    iterated = []
    iterate = lsdb_module.Fingerprint.__iter__

    def counting(fingerprint):
        iterated.append(fingerprint)
        return iterate(fingerprint)

    first, second = (_fail_one_link_after_warm_start(8) for _ in range(2))
    unfailed = next(_fail_one_link_after_warm_start(8))["agg-1-0"].lsdb.fingerprint()
    next(first), next(second)
    fp_a = next(first)["agg-1-0"].lsdb.fingerprint()
    fp_b = next(second)["agg-1-0"].lsdb.fingerprint()
    assert fp_a._base is not fp_b._base and fp_a._diff
    monkeypatch.setattr(lsdb_module.Fingerprint, "__iter__", counting)
    for _ in range(50):
        assert fp_a == fp_b and fp_b == fp_a and hash(fp_a) == hash(fp_b)
        assert {fp_a: "a"}[fp_b] == "a"
        assert fp_a != unfailed
    assert iterated == []
    monkeypatch.undo()
    assert tuple(fp_a) == tuple(fp_b) != tuple(unfailed)


def test_spf_cache_stats_note_sequence():
    """``note`` answers "has this consumer asked for this key before" —
    pinned on a scripted sequence, with keys on equal content from two
    databases (another base) counting as one key."""
    db = Lsdb()
    db.insert(lsa("a", ["b"], ["10.11.0.0/24"]))
    db.insert(lsa("b", ["a"]))
    first = db.fingerprint()
    twin = Lsdb()
    twin.load(db)  # db's content frozen into a base; first keeps none
    twin = twin.fingerprint()
    assert twin._base is not first._base
    db.insert(lsa("c", ["a"]))
    second = db.fingerprint()
    keys = [
        ("a", first), ("b", first), ("a", first), ("a", twin),
        ("a", second), ("b", twin), ("a", second), ("c", second),
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
