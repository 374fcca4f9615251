"""Batch all-origins SPF vs the per-origin oracle, across all families.

:func:`repro.routing.spf_batch.batch_compute_routes` promises exact
equality with ``{origin: compute_routes(origin, lsdb)}`` — that promise
is what lets :func:`repro.sim.flow.warmstart.warm_start_linkstate` feed
every protocol instance from one shared computation.  This suite pins
it across the four topology families the checker fuzzes, for both the
numpy and pure-python engines, and the same one level up: the shared
:class:`~repro.sim.flow.warmstart.OracleSpfEngine` a warm-started
protocol instance computes with answers exactly what the
:class:`~repro.routing.spf_incremental.IncrementalSpfEngine` of a
cold-started one does.  Converged fabrics only exercise the kernel's easy
half, so a seeded differential also feeds it *damaged* databases —
partitions, isolated switches, missing LSAs, half-declared adjacencies,
anycast prefixes — and a spine wider than one first-hop bitmask.
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
from repro.routing.spf_incremental import IncrementalSpfEngine, full_state
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


@pytest.mark.parametrize("build", TOPOLOGIES)
@pytest.mark.parametrize("engine", ENGINE_PARAMS)
def test_batch_states_equal_full_state(build, engine):
    """The SPF engine of a warm-started instance is a drop-in for the
    cold-started one: for every origin, the oracle engine's route table
    equals the incremental engine's from-scratch state, reported as a
    full (non-incremental) run — at one batch computation per fabric."""
    lsdb = converged_lsdb(build)
    oracle = BatchRouteOracle(engine=engine)
    origins = sorted(lsa.origin for lsa in lsdb.all())
    for origin in origins:
        routes, report = OracleSpfEngine(origin, oracle).compute(lsdb)
        assert routes == full_state(origin, lsdb).routes, origin
        assert routes == IncrementalSpfEngine(origin).compute(lsdb)[0], origin
        assert not report.incremental
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
