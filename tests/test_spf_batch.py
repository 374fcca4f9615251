"""Batch all-origins SPF vs the per-origin oracle, across all families.

:func:`repro.routing.spf_batch.batch_compute_routes` promises exact
equality with ``{origin: compute_routes(origin, lsdb)}`` — that promise
is what lets :func:`repro.sim.flow.warmstart.warm_start_linkstate` feed
every protocol instance from one shared computation.  This suite pins
it across the four topology families the checker fuzzes, for both the
numpy and pure-python engines, and the same one level up: the shared
:class:`~repro.sim.flow.warmstart.OracleSpfEngine` a warm-started
protocol instance computes with answers exactly what the
:class:`~repro.routing.spf_cache.SpfEngine` of a
cold-started one does.  Converged fabrics only exercise the kernel's easy
half, so a seeded differential also feeds it *damaged* databases —
partitions, isolated switches, missing LSAs, half-declared adjacencies,
anycast prefixes — and a spine wider than one first-hop bitmask.

The kernel hands an origin the *same* table object when nothing that
determines the table moved (``TableMemo``: same prefix columns, same
neighbor names, same bitmask row), within a run and from one run to the
next.  The same damaged databases, replayed in sequence through one
oracle so tables carry over, and constructed near-misses — equal rows
under other neighbors, a changed column list, an origin too wide for a
bitmask — pin that a shared table is always the right one.
"""

from __future__ import annotations

import random

import pytest

from repro.core.f2tree import f2tree
from repro.experiments.common import build_bundle
from repro.net.ip import Prefix
from repro.routing.lsdb import Lsa, Lsdb
from repro.routing.spf import compute_routes
from repro.routing.spf_batch import ENGINES, batch_compute_routes, have_numpy
from repro.routing.spf_cache import SpfEngine
from repro.sim.flow.warmstart import BatchRouteOracle, OracleSpfEngine
from repro.topology.fattree import fat_tree
from repro.topology.leafspine import leaf_spine
from repro.topology.vl2 import vl2

TOPOLOGIES = [
    pytest.param(lambda: fat_tree(4), id="fat-tree-4"),
    pytest.param(lambda: f2tree(6, across_ports=2), id="f2tree-6"),
    pytest.param(lambda: leaf_spine(4, 2), id="leaf-spine-4"),
    pytest.param(lambda: vl2(4, 4), id="vl2-4"),
]

#: spines with 63 / 64 / 65 two-way neighbors: the last degree one int64
#: first-hop bitmask holds, and the first two the per-origin oracle answers
WIDE_TOPOLOGIES = [
    pytest.param(lambda n=n: leaf_spine(n, 2), id=f"leaf-spine-{n}")
    for n in (63, 64, 65)
]

ENGINE_PARAMS = [
    pytest.param(
        engine,
        marks=pytest.mark.skipif(
            engine == "numpy" and not have_numpy(),
            reason="numpy unavailable",
        ),
    )
    for engine in ENGINES
]


def converged_lsdb(build):
    """A converged network's LSDB (every switch holds the same one)."""
    bundle = build_bundle(build())
    bundle.converge()
    protocols = sorted(bundle.protocols)
    fingerprints = {
        bundle.protocols[name].lsdb.fingerprint() for name in protocols
    }
    assert len(fingerprints) == 1, "network did not converge to one LSDB"
    return bundle.protocols[protocols[0]].lsdb


@pytest.mark.parametrize("build", TOPOLOGIES + WIDE_TOPOLOGIES)
@pytest.mark.parametrize("engine", ENGINE_PARAMS)
def test_batch_routes_equal_per_origin_oracle(build, engine):
    lsdb = converged_lsdb(build)
    batch = batch_compute_routes(lsdb, engine=engine)
    for origin in sorted(batch):
        assert batch[origin] == compute_routes(origin, lsdb), origin


def damaged_lsdb(topology, rng, p_remove, loopbacks):
    """An LSDB no converged fabric would hold: each link removed with
    probability ``p_remove`` (1.0 isolates every switch), ~5 % of the
    surviving adjacencies declared by one endpoint only, ~5 % of the
    LSAs missing (their neighbors still name them), and up to three
    anycast prefixes advertised by a random fifth of the switches."""
    switches = sorted(node.name for node in topology.switches())
    declared = {name: [] for name in switches}
    for link in topology.links.values():
        a, b = link.key
        if a in declared and b in declared and rng.random() >= p_remove:
            for near, far in ((a, b), (b, a)):
                if rng.random() >= 0.05:
                    declared[near].append(far)
    anycast = [Prefix(f"192.168.{i}.0/24") for i in range(rng.randrange(4))]
    racks = {node.name for node in topology.tors()}
    lsdb = Lsdb()
    for index, name in enumerate(switches):
        prefixes = [p for p in anycast if rng.random() < 0.2]
        if name in racks:
            prefixes.append(Prefix((10 << 24) | (index << 8), 24))
        if loopbacks:
            prefixes.append(Prefix((172 << 24) | index, 32))
        if rng.random() >= 0.05:
            lsdb.insert(
                Lsa(name, 1, tuple(sorted(declared[name])), tuple(prefixes))
            )
    return lsdb


@pytest.mark.skipif(not have_numpy(), reason="numpy unavailable")
@pytest.mark.parametrize(
    "build", TOPOLOGIES + [pytest.param(lambda: fat_tree(6), id="fat-tree-6")]
)
def test_batch_routes_equal_oracle_on_damaged_lsdbs(build):
    """40 seeded damaged databases per family (200 in all): every
    origin's batch table equals the oracle's, and the origin sets agree."""
    topology = build()
    rng = random.Random(f"damaged-lsdb:{topology.name}")
    for p_remove in (0.0, 0.05, 0.3, 0.7, 1.0):
        for loopbacks in (False, True):
            for _ in range(4):
                lsdb = damaged_lsdb(topology, rng, p_remove, loopbacks)
                batch = batch_compute_routes(lsdb, engine="numpy")
                assert sorted(batch) == sorted(lsa.origin for lsa in lsdb.all())
                for origin in sorted(batch):
                    assert batch[origin] == compute_routes(origin, lsdb), (
                        origin, p_remove, loopbacks,
                    )


def damaged_lsdbs(topology):
    """The 40 seeded damaged databases of one family, in a fixed order."""
    rng = random.Random(f"damaged-lsdb:{topology.name}")
    for p_remove in (0.0, 0.05, 0.3, 0.7, 1.0):
        for loopbacks in (False, True):
            for _ in range(4):
                yield damaged_lsdb(topology, rng, p_remove, loopbacks)


def dented(lsdb, rng):
    """``lsdb`` minus one declared adjacency (when it has any): one link
    fewer under the same origins and the same prefix columns — the step
    between two runs that lets most tables carry over."""
    lsas = list(lsdb.all())
    declaring = [i for i, lsa in enumerate(lsas) if lsa.neighbors]
    drop = rng.choice(declaring) if declaring else None
    copy = Lsdb()
    for i, lsa in enumerate(lsas):
        neighbors = lsa.neighbors
        if i == drop:
            gone = rng.randrange(len(neighbors))
            neighbors = neighbors[:gone] + neighbors[gone + 1:]
        copy.insert(Lsa(lsa.origin, 1, neighbors, lsa.prefixes))
    return copy


@pytest.mark.skipif(not have_numpy(), reason="numpy unavailable")
@pytest.mark.parametrize(
    "build", TOPOLOGIES + [pytest.param(lambda: fat_tree(6), id="fat-tree-6")]
)
def test_oracle_sequence_of_damaged_lsdbs_equals_per_origin_oracle(build):
    """The same 200 databases through *one* oracle, each followed by
    itself with one adjacency dropped, so every run is lent the tables of
    the run before — over other columns after a fresh database, over the
    same ones after a dent.  Whatever is carried over or shared, each
    origin's table equals the from-scratch one after every run."""
    topology = build()
    rng = random.Random(f"dented-lsdb:{topology.name}")
    oracle = BatchRouteOracle(engine="numpy")
    carried = 0
    previous = {}
    for damaged in damaged_lsdbs(topology):
        for lsdb in (damaged, dented(damaged, rng)):
            runs = oracle.batch_runs
            batch = oracle.routes(lsdb)
            assert sorted(batch) == sorted(lsa.origin for lsa in lsdb.all())
            for origin in sorted(batch):
                assert batch[origin] == compute_routes(origin, lsdb), origin
            if oracle.batch_runs > runs:  # computed, not a fingerprint hit
                held = {id(table) for table in previous.values()}
                carried += sum(id(table) in held for table in batch.values())
            previous = batch
    assert oracle.batch_runs + oracle.hits == 80
    assert carried > 40  # the hazard was exercised: tables did carry over


def _lsdb(*lsas):
    lsdb = Lsdb()
    for origin, neighbors, prefixes in lsas:
        lsdb.insert(Lsa(origin, 1, tuple(neighbors), tuple(prefixes)))
    return lsdb


def _runs(engine, *lsdbs):
    """Each database through one oracle in turn; every answer checked."""
    oracle = BatchRouteOracle(engine=engine)
    answers = []
    for lsdb in lsdbs:
        answers.append(oracle.routes(lsdb))
        for origin, table in answers[-1].items():
            assert table == compute_routes(origin, lsdb), origin
    return answers


P, Q, R = Prefix("10.0.1.0/24"), Prefix("10.0.2.0/24"), Prefix("10.0.3.0/24")


@pytest.mark.skipif(not have_numpy(), reason="numpy unavailable")
def test_shared_table_within_a_run_and_across_an_unrelated_change():
    """Two spines over the same leaves hold one table; a leaf gaining a
    prefix-free stub neighbor moves no spine's row, so both keep it."""
    leaves = [("l1", ["s1", "s2"], [P]), ("l2", ["s1", "s2"], [Q])]
    spines = [("s1", ["l1", "l2"], []), ("s2", ["l1", "l2"], [])]
    before, after = _runs(
        "numpy",
        _lsdb(*leaves, *spines),
        _lsdb(("l1", ["s1", "s2", "x"], [P]), leaves[1], *spines, ("x", ["l1"], [])),
    )
    assert before["s1"] is before["s2"]
    assert after["s1"] is before["s1"] and after["s2"] is before["s1"]
    assert after["l2"] is before["l2"]
    assert after["l1"] == before["l1"] and after["l1"] is not before["l1"]


@pytest.mark.skipif(not have_numpy(), reason="numpy unavailable")
def test_shared_table_misses_on_equal_rows_under_other_neighbors():
    """``a`` and ``b`` both reach P and Q through their first (only)
    neighbor — bit 0 in both rows, byte for byte — but through
    different switches; and renaming ``a``'s neighbor between runs leaves
    its row alone too."""
    def chain(hop_a):
        return _lsdb(
            ("a", [hop_a], []), ("b", ["n"], []),
            (hop_a, ["a", "t"], []), ("n", ["b", "t"], []),
            ("t", [hop_a, "n"], [P, Q]),
        )

    first, second = _runs("numpy", chain("m"), chain("k"))
    assert first["a"] == {P: ("m",), Q: ("m",)}
    assert first["b"] == {P: ("n",), Q: ("n",)}
    assert second["a"] == {P: ("k",), Q: ("k",)}
    assert second["b"] is first["b"]


@pytest.mark.skipif(not have_numpy(), reason="numpy unavailable")
def test_shared_table_misses_when_the_column_list_changes():
    """One advertiser withdraws a prefix while another brings a new one:
    ``a``'s neighbors and its row, byte for byte, are what they were —
    over other columns.  Then a column fewer, then one more again."""
    def fabric(*advertised):
        return _lsdb(
            ("a", ["m"], []), ("m", ["a", "t", "u"], []),
            ("t", ["m"], advertised[:1]), ("u", ["m"], advertised[1:]),
        )

    both, shifted, only_r, again = _runs(
        "numpy", fabric(P, Q), fabric(Q, R), fabric(R), fabric(R, Q)
    )
    assert both["a"] == {P: ("m",), Q: ("m",)}
    assert shifted["a"] == {Q: ("m",), R: ("m",)}
    assert only_r["a"] == {R: ("m",)}
    # the second run's columns and row again (under another fingerprint:
    # the advertisers swapped), but the memo holds one run only
    assert again["a"] == shifted["a"] and again["a"] is not shifted["a"]


@pytest.mark.skipif(not have_numpy(), reason="numpy unavailable")
def test_shared_table_never_above_one_bitmask_of_neighbors():
    """A 64-leaf spine is answered per origin — a new table every run,
    right every run — while its 64 leaves go on sharing."""
    lsdb = converged_lsdb(lambda: leaf_spine(64, 2))
    first, second = _runs("numpy", lsdb, _copy_with_stub(lsdb))
    wide = [o for o in first if len(list(lsdb.two_way_neighbors(o))) > 63]
    assert len(wide) == 2
    for origin in sorted(first):
        assert (second[origin] is first[origin]) == (
            origin not in wide and origin != "leaf-0"
        ), origin


def _copy_with_stub(lsdb):
    """``lsdb`` plus a prefix-free stub hanging off ``leaf-0``: a second
    fingerprint under which every other origin's table is unchanged."""
    copy = Lsdb()
    for lsa in lsdb.all():
        neighbors = lsa.neighbors
        if lsa.origin == "leaf-0":
            neighbors = tuple(sorted(neighbors + ("stub",)))
        copy.insert(Lsa(lsa.origin, 1, neighbors, lsa.prefixes))
    copy.insert(Lsa("stub", 1, ("leaf-0",), ()))
    return copy


def test_shared_table_never_on_the_python_engine():
    """``engine="python"`` answers equally and shares nothing, even for
    origins that are interchangeable."""
    leaves = [("l1", ["s1", "s2"], [P]), ("l2", ["s1", "s2"], [Q])]
    spines = [("s1", ["l1", "l2"], []), ("s2", ["l1", "l2"], [])]
    first, second = _runs(
        "python",
        _lsdb(*leaves, *spines),
        _lsdb(*leaves, *spines, ("x", [], [])),
    )
    assert first["s1"] == first["s2"] and first["s1"] is not first["s2"]
    for origin in sorted(first):
        assert second[origin] == first[origin]
        assert second[origin] is not first[origin]


@pytest.mark.parametrize("build", TOPOLOGIES)
@pytest.mark.parametrize("engine", ENGINE_PARAMS)
def test_batch_states_equal_full_state(build, engine):
    """The SPF engine of a warm-started instance is a drop-in for the
    cold-started one: for every origin, the oracle engine's route table
    equals the per-origin engine's and the from-scratch oracle's,
    reported as a ``batch`` run — at one batch computation per fabric."""
    lsdb = converged_lsdb(build)
    oracle = BatchRouteOracle(engine=engine)
    origins = sorted(lsa.origin for lsa in lsdb.all())
    for origin in origins:
        routes, report = OracleSpfEngine(origin, oracle).compute(lsdb)
        assert routes == compute_routes(origin, lsdb), origin
        assert routes == SpfEngine(origin).compute(lsdb)[0], origin
        assert (report.delta, report.edge) == ("batch", None)
    assert (oracle.batch_runs, oracle.hits) == (1, len(origins) - 1)


@pytest.mark.skipif(not have_numpy(), reason="numpy unavailable")
def test_numpy_and_python_engines_agree():
    lsdb = converged_lsdb(lambda: fat_tree(4))
    assert batch_compute_routes(lsdb, engine="numpy") == batch_compute_routes(
        lsdb, engine="python"
    )


def test_unknown_engine_rejected():
    lsdb = converged_lsdb(lambda: fat_tree(4))
    with pytest.raises(ValueError):
        batch_compute_routes(lsdb, engine="cuda")
