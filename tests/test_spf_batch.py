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
cold-started one does.
"""

from __future__ import annotations

import pytest

from repro.core.f2tree import f2tree
from repro.experiments.common import build_bundle
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


@pytest.mark.parametrize("build", TOPOLOGIES)
@pytest.mark.parametrize("engine", ENGINE_PARAMS)
def test_batch_routes_equal_per_origin_oracle(build, engine):
    lsdb = converged_lsdb(build)
    batch = batch_compute_routes(lsdb, engine=engine)
    for origin in sorted(batch):
        assert batch[origin] == compute_routes(origin, lsdb), origin


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
