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
  failure;
* the seeded ``flow-fairshare-corrupted`` mutant proves the harness
  would actually notice a broken fluid solver.
"""

from __future__ import annotations

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
from repro.core.f2tree import f2tree
from repro.dataplane.network import Network
from repro.dataplane.params import NetworkParams
from repro.experiments.common import build_bundle
from repro.failures.injector import FailureEvent, schedule_failures
from repro.net.fib import FibDelta, FibEntry
from repro.sim.engine import Simulator
from repro.sim.flow.warmstart import warm_start_linkstate
from repro.sim.units import milliseconds, seconds
from repro.topology.fattree import fat_tree
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
