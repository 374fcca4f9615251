"""Cross-backend agreement: the fluid data plane vs the packet oracle.

The acceptance bar for the flow backend is *agreement*, not speed:
on fabrics small enough for the packet backend, the fluid backend must
reproduce the same recovery-time classification, the same FRR-window
behaviour, the same invariant verdicts and the same post-convergence
FIBs.  This suite pins that along three axes:

* :func:`repro.check.differential.run_differential` on fuzzed checker
  configs covering all four topology families;
* :func:`repro.check.differential.compare_recovery` on the paper's
  single-flow recovery experiment (fast-reroute on F²Tree vs plain
  convergence on fat tree — the discrimination the paper is about);
* warm-start equivalence: the batch-constructed control plane is
  FIB-identical to event-driven convergence, before and after a
  failure — for bare networks, and for whole bundles: a fluid bundle
  (warm) against its packet twin (cold, the reference) on all four
  fuzz families, and a fluid Fig 6 cell against the same cell on a
  cold-started fluid network; and the hand-built scale trial
  (``run_flow_scale_trial``) against the bundle path at k=8;
* the seeded ``flow-fairshare-corrupted`` mutant proves the harness
  would actually notice a broken fluid solver.
"""

from __future__ import annotations

import random

import pytest

from repro.check.config import generate_config
from repro.check.differential import (
    BACKEND_AGREEMENT,
    CLASS_CONVERGENCE,
    CLASS_FRR,
    CLASS_NONE,
    FLOW_MUTANTS,
    classify_recovery_time,
    compare_recovery,
    run_differential,
    run_flow_selftest,
)
from repro.check.execute import execute_check, snapshot_fibs
from repro.core.backup_routes import configure_backup_routes
from repro.core.f2tree import f2tree
from repro.dataplane.network import Network
from repro.dataplane.params import NetworkParams
from repro.experiments import partition_aggregate as fig6
from repro.experiments.common import (
    DEFAULT_WARMUP,
    Bundle,
    build_bundle,
    leftmost_host,
    rightmost_host,
)
from repro.experiments.flowscale import run_flow_scale_trial
from repro.experiments.recovery import default_failed_links, run_recovery
from repro.failures.injector import FailureEvent, schedule_failures
from repro.net.fib import FibDelta, FibEntry
from repro.net.packet import PROTO_UDP
from repro.obs import EV_FIB_INSTALL, EV_SPF_RUN, EV_SPF_SCHEDULE, Observability
from repro.routing.linkstate import deploy_linkstate
from repro.routing.spf import compute_routes
from repro.routing.spf_cache import SpfEngine
from repro.sim.engine import Simulator
from repro.sim.flow import FluidTrafficModel
from repro.sim.flow.warmstart import (
    BatchRouteOracle,
    OracleSpfEngine,
    warm_start_linkstate,
)
from repro.sim.randomness import RandomStreams
from repro.sim.units import milliseconds, seconds
from repro.topology.fattree import fat_tree
from repro.topology.graph import LinkKind
from repro.topology.leafspine import leaf_spine
from repro.topology.vl2 import vl2


# ------------------------------------------------- checker differentials
#
# One fuzzed checker config per topology family, chosen by scanning the
# deterministic generator — so the families are pinned without
# hard-coding seeds that would silently drift if the generator changes.


def _seed_for_family(family: str, limit: int = 400) -> int:
    for seed in range(limit):
        if generate_config(seed).topology == family:
            return seed
    raise AssertionError(f"no {family} config in the first {limit} seeds")


@pytest.mark.parametrize(
    "family", ["fat-tree", "f2tree", "leaf-spine", "vl2"]
)
def test_differential_agreement_per_family(family):
    result = run_differential(generate_config(_seed_for_family(family)))
    assert result.ok, (
        f"{family}: backends disagree: {result.disagreements}"
    )


def test_differential_compares_fibs_and_probes():
    """The comparison actually looked at something: both outcomes carry
    captured FIBs and probe counts."""
    result = run_differential(generate_config(0))
    assert result.packet.fibs and result.flow.fibs
    assert result.packet.fibs == result.flow.fibs
    assert result.packet.stats["probes_sent"] > 0
    assert result.flow.stats["flow_model"]["flows"] == 1


def test_flow_backend_execution_reports_model_stats():
    config = generate_config(0).with_backend("flow")
    outcome = execute_check(config)
    stats = outcome.stats["flow_model"]
    assert stats["flows"] == 1
    assert stats["recomputes"] > 0


# ------------------------------------------------- recovery agreement


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: fat_tree(4), id="fat-tree-4"),
        pytest.param(lambda: f2tree(8, across_ports=2), id="f2tree-8"),
        pytest.param(lambda: leaf_spine(4, 2), id="leaf-spine-4"),
        pytest.param(lambda: vl2(4, 4), id="vl2-4"),
    ],
)
def test_recovery_classification_agrees_udp(build):
    agreement = compare_recovery(build(), transport="udp")
    assert agreement.ok, (
        f"{agreement.topology}: packet={agreement.packet_class} "
        f"{agreement.packet_outcome} vs flow={agreement.flow_class} "
        f"{agreement.flow_outcome}"
    )
    assert agreement.packet_outcome[1], "packet backend lost the path"


def test_recovery_classification_agrees_tcp():
    agreement = compare_recovery(f2tree(8, across_ports=2), transport="tcp")
    assert agreement.ok, (
        f"tcp: packet={agreement.packet_class} vs flow={agreement.flow_class}"
    )


def test_f2tree_fast_reroutes_and_fat_tree_converges():
    """The paper's headline discrimination survives the backend change:
    F²Tree recovers inside the FRR window, the plain fat tree waits for
    convergence — on *both* backends (compare_recovery already asserts
    they match; this pins which class they match on)."""
    frr = compare_recovery(f2tree(8, across_ports=2), transport="udp")
    conv = compare_recovery(fat_tree(4), transport="udp")
    assert frr.flow_class == CLASS_FRR
    assert conv.flow_class == CLASS_CONVERGENCE


def test_classify_recovery_time_boundaries():
    params = NetworkParams()
    boundary = params.detection_delay + params.spf_initial_delay // 2
    assert classify_recovery_time(None, params) == CLASS_NONE
    assert classify_recovery_time(0, params) == CLASS_NONE
    assert classify_recovery_time(boundary, params) == CLASS_FRR
    assert classify_recovery_time(boundary + 1, params) == CLASS_CONVERGENCE


# ------------------------------------------------- warm-start equivalence


def _event_driven_fibs(topology):
    bundle = build_bundle(topology)
    bundle.converge()
    return bundle, snapshot_fibs(bundle.network)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: fat_tree(4), id="fat-tree-4"),
        pytest.param(lambda: leaf_spine(4, 2), id="leaf-spine-4"),
    ],
)
def test_warm_start_fibs_match_event_driven_convergence(build):
    _, converged = _event_driven_fibs(build())

    sim = Simulator()
    network = Network(build(), sim, NetworkParams())
    warm_start_linkstate(network, advertise_loopbacks=True)
    assert snapshot_fibs(network) == converged


def test_warm_start_reconverges_like_event_driven_after_failure():
    """Fail the same link on both control planes and let both re-settle:
    the warm-started network's post-failure FIBs must match the
    conventionally-converged one's."""

    def run(warm: bool):
        topology = fat_tree(4)
        if warm:
            sim = Simulator()
            network = Network(topology, sim, NetworkParams())
            warm_start_linkstate(network, advertise_loopbacks=True)
        else:
            bundle = build_bundle(topology)
            bundle.converge()
            sim, network = bundle.sim, bundle.network
        link = sorted(
            link.spec.key for link in network.links
            if link.spec.key[0].startswith("agg-")
            and link.spec.key[1].startswith("tor-")
        )[0]
        schedule_failures(
            network,
            [FailureEvent(sim.now + milliseconds(100), link[0], link[1])],
        )
        sim.run(until=sim.now + seconds(2))
        return snapshot_fibs(network)

    assert run(warm=True) == run(warm=False)


def test_warm_start_shares_fib_entries_across_switches():
    """Each distinct (prefix, next hops) entry is built once per warm
    start and the immutable object installed on every switch that routes
    that way; the tables themselves stay per switch."""
    topology = fat_tree(8)
    network = Network(topology, Simulator(), NetworkParams())
    warm_start_linkstate(network)
    tor_a, tor_b = network.switch("tor-0-0"), network.switch("tor-0-1")
    remote = topology.node("tor-7-3").subnet
    probe = remote.address(1)
    shared = tor_a.fib.exact(remote)
    assert shared is not None and shared is tor_b.fib.exact(remote)

    held = [e for switch in network.switches() for e in switch.fib.entries()]
    assert len(held) == sum(len(switch.fib) for switch in network.switches())
    assert len({id(e) for e in held}) * 4 < len(held)
    # sharing is by value only: one object per distinct route
    assert len({id(e) for e in held}) == len({(e.prefix, e.next_hops) for e in held})

    # a download on one switch swaps its own table slot, nothing else
    generation_b = tor_b.fib.generation
    tor_a.fib.apply_delta(FibDelta(
        (FibEntry(remote, shared.next_hops[:1], source="test"),),
    ))
    assert tor_a.fib.lookup(probe).next_hops == shared.next_hops[:1]
    assert tor_b.fib.lookup(probe) is shared
    assert tor_b.fib.generation == generation_b

    # the intern table dies with the call: a second fabric gets its own
    other = Network(fat_tree(8), Simulator(), NetworkParams())
    warm_start_linkstate(other)
    again = other.switch("tor-0-0").fib.exact(remote)
    assert again == shared and again is not shared


# ------------------------------------- route tables are shared values
#
# A route table is immutable once an SPF engine has returned it: the
# oracle caches the object, switches hold it as their download (several
# may hold one), the next batch run may hand it out again.


@pytest.mark.parametrize("run", [
    pytest.param(fig6.run_flow_partition_aggregate, id="flow"),
    pytest.param(fig6.run_partition_aggregate, id="packet"),
])
def test_shared_table_is_never_written_to(run, monkeypatch):
    """Every table an engine hands out during a seeded k=4 Fig 6 cell —
    the batch oracle's on the fluid backend, the per-origin engine's on
    the packet twin — still equals, at the end of the run, what it was
    when it was handed out."""
    handed_out = {}  # id -> (the table, kept alive; its contents then)

    def recording(compute):
        def compute_and_record(self, lsdb, kind):
            routes = compute(self, lsdb, kind)
            handed_out.setdefault(id(routes), (routes, dict(routes)))
            return routes
        return compute_and_record

    for engine in (OracleSpfEngine, SpfEngine):
        monkeypatch.setattr(engine, "compute", recording(engine.compute))
    config = fig6.PartitionAggregateConfig(
        duration=seconds(4), n_requests=10, n_background_flows=5,
        ports=4, seed=3,
    )
    assert run("fat-tree", config).n_failures > 0
    # 20 switches, each with more than its converged table to its name
    assert len(handed_out) > 40
    for table, contents in handed_out.values():
        assert table == contents


def test_shared_table_objects_outlive_a_failure_elsewhere():
    """On a warm-started k=8 fat tree the cores of one group hold one
    table object and every switch holds the oracle's; after one rack
    link fails, exactly the switches whose routes did not change still
    hold the object they held before — the link's two endpoints do not."""
    sim = Simulator()
    network = Network(fat_tree(8), sim, NetworkParams())
    oracle = BatchRouteOracle()
    protocols = warm_start_linkstate(network, oracle=oracle)

    def held():
        return {name: p.route_table for name, p in protocols.items()}

    before = held()
    for name, protocol in protocols.items():
        assert before[name] is oracle.routes(protocol.lsdb)[name]
    for group in range(4):
        cores = {id(before[f"core-{group}-{i}"]) for i in range(4)}
        assert len(cores) == 1
    assert before["core-0-0"] is not before["core-1-0"]

    agg, tor = "agg-0-0", "tor-0-0"
    schedule_failures(
        network, [FailureEvent(sim.now + milliseconds(100), agg, tor)]
    )
    sim.run(until=sim.now + seconds(2))
    after = held()
    assert all(p.stats.fib_installs == 2 for p in protocols.values())
    kept = sorted(name for name in after if after[name] is before[name])
    assert kept == sorted(name for name in after if after[name] == before[name])
    assert agg not in kept and tor not in kept
    # positions 1-3 of every pod's aggregation layer never routed over
    # the link; a group-0 core still enters pod 0 at agg-0-0 (the path
    # behind it got longer, its first hop did not), so every core keeps
    assert len(kept) == 8 * 3 + 16
    assert all(name.startswith(("agg-", "core-")) for name in kept)
    for name, protocol in protocols.items():
        assert after[name] is oracle.routes(protocol.lsdb)[name]
        assert after[name] == compute_routes(name, protocol.lsdb)


# ----------------------------------- warm = cold at the bundle level
#
# A ``backend="flow"`` bundle starts converged (warm start, zero
# events); its ``backend="packet"`` twin floods its way there and is the
# reference.  The two must be indistinguishable from the warm-up on.

BUNDLE_FAMILIES = [
    pytest.param(lambda: fat_tree(4), id="fat-tree-4"),
    pytest.param(lambda: f2tree(6, across_ports=2), id="f2tree-6"),
    pytest.param(lambda: leaf_spine(4, 2), id="leaf-spine-4"),
    pytest.param(lambda: vl2(4, 4), id="vl2-4"),
]


def _warm_and_cold(build):
    """The same topology as a converged fluid and a converged packet
    bundle, tracing switched on once both have settled."""
    bundles = []
    for backend in ("flow", "packet"):
        bundle = build_bundle(
            build(), params=NetworkParams(backend=backend), obs=Observability()
        )
        bundle.converge()
        bundle.obs.enable()
        bundles.append(bundle)
    return bundles


def _fib_sources(network):
    return {
        switch.name: sorted(
            (str(entry.prefix), entry.source) for entry in switch.fib.entries()
        )
        for switch in network.switches()
    }


@pytest.mark.parametrize("build", BUNDLE_FAMILIES)
def test_fluid_bundle_starts_where_packet_bundle_converges(build):
    warm, cold = _warm_and_cold(build)
    assert warm.route_oracle is not None and cold.route_oracle is None
    assert warm.flow_model is not None and cold.flow_model is None
    # the warm-up costs the fluid bundle nothing: no event was simulated
    assert warm.sim.now == cold.sim.now == DEFAULT_WARMUP
    assert warm.sim.events_processed == 0 < cold.sim.events_processed
    assert warm.flow_model.notifications == 0

    assert snapshot_fibs(warm.network) == snapshot_fibs(cold.network)
    # backup statics (installed after the bulk load) included
    sources = _fib_sources(warm.network)
    assert sources == _fib_sources(cold.network)
    has_statics = any(
        source == "static" for table in sources.values() for _, source in table
    )
    assert has_statics == (warm.backup_config is not None)
    assert sorted(warm.protocols) == sorted(cold.protocols)
    for name in sorted(cold.protocols):
        assert (
            warm.protocols[name].lsdb.fingerprint()
            == cold.protocols[name].lsdb.fingerprint()
        ), name


@pytest.mark.parametrize("build", BUNDLE_FAMILIES)
def test_fluid_bundle_reconverges_like_packet_bundle(build):
    """One link failure after the warm-up: both control planes throttle
    SPF identically (the cold start's hold window has expired, so both
    see the initial delay) and hold equal FIBs at every FIB-download
    instant on the way to the new converged state."""
    warm, cold = _warm_and_cold(build)
    params = cold.network.params
    topology = cold.topology
    path, complete = cold.network.trace_route(
        leftmost_host(topology), rightmost_host(topology), PROTO_UDP, 10001, 7000
    )
    assert complete
    fail_at = DEFAULT_WARMUP + milliseconds(100)
    for bundle in (warm, cold):
        schedule_failures(
            bundle.network,
            [FailureEvent(fail_at, a, b) for a, b in default_failed_links(path)],
        )
    settled = (
        fail_at + params.detection_delay + params.spf_initial_delay
        + 4 * params.fib_update_delay
    )
    for now in range(fail_at, settled + 1, params.fib_update_delay):
        warm.sim.run(until=now)
        cold.sim.run(until=now)
        assert snapshot_fibs(warm.network) == snapshot_fibs(cold.network), now

    def spf_schedules(bundle):
        return [
            (event.time, event.node, event.data["delay"], event.data["hold"])
            for event in bundle.obs.trace.events(EV_SPF_SCHEDULE)
        ]

    def fib_downloads(bundle):
        return [
            (event.time, event.node, event.data["changes"])
            for event in bundle.obs.trace.events(EV_FIB_INSTALL)
        ]

    schedules = spf_schedules(cold)
    assert schedules and spf_schedules(warm) == schedules
    assert {(delay, hold) for _, _, delay, hold in schedules} == {
        (params.spf_initial_delay, params.spf_hold)
    }
    downloads = fib_downloads(cold)
    assert fib_downloads(warm) == downloads
    assert any(changes for _, _, changes in downloads)
    # the failure was answered by shared batch runs, not per-origin SPF
    oracle = warm.route_oracle
    assert oracle.batch_runs + oracle.hits == 1 + len(schedules)


def test_spf_runs_classify_alike_on_both_backends():
    """Seeded fail/restore churn on a k=4 fat tree after the warm-up: the
    fluid bundle (warm-started, computing through the batch oracle) and
    its packet twin (cold-started, per-origin engine) trace the same
    ``(time, node, delta)`` sequence of ``spf.run`` records — the
    protocol classifies each transition, whatever computes the table."""
    warm, cold = _warm_and_cold(lambda: fat_tree(4))
    rng = random.Random(7)
    links = sorted(
        link.spec.key for link in cold.network.links
        if not link.spec.key[0].startswith("host-")
    )
    events = []
    for start in (seconds(0.1), seconds(3)):
        a, b = rng.choice(links)
        at = DEFAULT_WARMUP + start + milliseconds(rng.randrange(50))
        events.append(FailureEvent(at, a, b, restore_at=at + seconds(1.5)))
    for bundle in (warm, cold):
        schedule_failures(bundle.network, events)
        bundle.sim.run(until=DEFAULT_WARMUP + seconds(6))

    def spf_runs(bundle):
        return [
            (event.time, event.node, event.data["delta"])
            for event in bundle.obs.trace.events(EV_SPF_RUN)
        ]

    runs = spf_runs(cold)
    assert spf_runs(warm) == runs
    assert {delta for _, _, delta in runs} == {"link-down", "link-up"}


def _cold_fluid_bundle(topology, params=None, seed=1):
    """A fluid bundle built the way every one was before fluid bundles
    warm-started: event-driven link-state deployment, fluid model
    attached before the initial flood."""
    sim = Simulator()
    network = Network(topology, sim, params)
    protocols = dict(deploy_linkstate(network))
    has_across = any(
        link.kind is LinkKind.ACROSS for link in topology.links.values()
    )
    backup_config = configure_backup_routes(network) if has_across else None
    return Bundle(
        topology=topology, sim=sim, network=network, protocols=protocols,
        backup_config=backup_config, streams=RandomStreams(seed),
        flow_model=FluidTrafficModel(network),
        # nothing computes through it: its counters stay 0
        route_oracle=BatchRouteOracle(),
    )


# the smallest fabric of each kind (a 4-port F²Tree cannot form its rings)
@pytest.mark.parametrize("kind, ports", [("fat-tree", 4), ("f2tree", 6)])
def test_fig6_cell_is_the_same_from_a_cold_started_fluid_network(
    kind, ports, monkeypatch
):
    """A seeded Fig 6 cell on the fluid backend: every request and every
    background transfer starts and completes at the same instant whether
    the network warm-started or flooded its way to convergence, and the
    model did the same work — minus the V cold-start FIB downloads it no
    longer hears about."""
    config = fig6.PartitionAggregateConfig(
        duration=seconds(4), n_requests=10, n_background_flows=5,
        ports=ports, seed=3,
    )
    warm = fig6.run_flow_partition_aggregate(kind, config)
    monkeypatch.setattr(fig6, "build_bundle", _cold_fluid_bundle)
    cold = fig6.run_flow_partition_aggregate(kind, config)

    assert warm.stats.records == cold.stats.records
    assert any(r.completed_at is not None for r in warm.stats.records)
    assert warm.n_failures == cold.n_failures > 0
    assert warm.background_completed == cold.background_completed
    switches = len(fig6.conditions_topology(kind, ports).switches())
    moved = {
        key: cold.backend_stats[key] - value
        for key, value in warm.backend_stats.items()
        if cold.backend_stats[key] != value
    }
    assert moved == {
        "notifications": switches,
        "batch_spf_runs": -warm.backend_stats["batch_spf_runs"],
        "batch_spf_hits": -warm.backend_stats["batch_spf_hits"],
    }
    assert 0 < warm.backend_stats["batch_spf_runs"] < warm.backend_stats["batch_spf_hits"]


def test_flow_scale_trial_matches_the_fluid_recovery_bundle():
    """``run_flow_scale_trial`` builds its network by hand; at k=8 it
    must report what ``run_recovery`` reports for the same trial through
    ``build_bundle`` on the fluid backend (warm start, 200 ms warm-up)."""
    scale = run_flow_scale_trial(ports=8)
    bundled = run_recovery(
        fat_tree(8, hosts_per_tor=1), "udp",
        params=NetworkParams(backend="flow"), warmup=milliseconds(200),
    )
    assert scale.failed_links == bundled.failed_links
    assert scale.failure_time == bundled.failure_time
    assert scale.connectivity_loss == bundled.connectivity_loss == 270_134_000
    assert (scale.packets_received, scale.packets_sent) == (22_295, 25_000)
    assert (bundled.packets_received, bundled.packets_sent) == (22_295, 25_000)
    assert scale.path_after_complete and bundled.path_after[1]


# --------------------------------------------------------- seeded mutant


def test_flow_fairshare_mutant_is_caught_by_agreement():
    results = run_flow_selftest()
    assert [r.name for r in results] == sorted(FLOW_MUTANTS)
    for result in results:
        assert result.baseline == (), (
            f"{result.name}: baseline differential not clean: "
            f"{result.baseline}"
        )
        assert result.caught == (BACKEND_AGREEMENT,), (
            f"{result.name}: mutant escaped the differential harness"
        )
        assert result.ok


def test_fairshare_mutant_noops_on_packet_backend():
    """The corrupted solver must be invisible to the packet side — that
    is what makes the packet execution the oracle."""
    mutant = FLOW_MUTANTS["flow-fairshare-corrupted"]
    config = mutant.config_factory().with_backend("packet")
    clean = execute_check(config)
    mutated = execute_check(config, mutant=mutant)
    assert clean.stats["probes_received"] == mutated.stats["probes_received"]
    assert clean.violations == mutated.violations
