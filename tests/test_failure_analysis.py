"""Tests for the §II-C failure-condition classifier."""

from __future__ import annotations

import pytest

from repro.core.failure_analysis import (
    FailureCondition,
    agg_down_peer,
    analyze_scenario,
    core_down_peer,
)
from repro.topology.graph import NodeKind, link_key


@pytest.fixture(scope="module")
def ring(f2_6):
    """The Fig 3 setup: dest pod 0 of the 6-port F²Tree, aggs S8,S9,S10."""
    members = [n.name for n in f2_6.pod_members(NodeKind.AGG, 0)]
    dest_tor = f2_6.pod_members(NodeKind.TOR, 0)[-1].name
    return f2_6, members, dest_tor


class TestConditions:
    def test_no_failure(self, ring):
        topo, (sx, *_), tor = ring
        result = analyze_scenario(topo, sx, tor, frozenset())
        assert result.condition is FailureCondition.NO_DOWNWARD_FAILURE

    def test_condition_1_right_neighbor_works(self, ring):
        """Fig 3(a): only Sx's downward link fails."""
        topo, (sx, right, left), tor = ring
        result = analyze_scenario(topo, sx, tor, frozenset({link_key(sx, tor)}))
        assert result.condition is FailureCondition.CONDITION_1
        assert result.extra_hops == 1
        assert result.egress == right
        assert result.fast_reroute_succeeds

    def test_condition_2_relay_around_ring(self, ring):
        """Fig 3(b): Sx and its right neighbor both lose downward links."""
        topo, (sx, right, left), tor = ring
        failed = frozenset({link_key(sx, tor), link_key(right, tor)})
        result = analyze_scenario(topo, sx, tor, failed)
        assert result.condition is FailureCondition.CONDITION_2
        assert result.extra_hops == 2
        assert result.egress == left  # ring of 3: two hops right = left

    def test_condition_3_leftward_fallback(self, ring):
        """Fig 3(c): right across link dead, go left."""
        topo, (sx, right, left), tor = ring
        failed = frozenset({link_key(sx, tor), link_key(sx, right)})
        result = analyze_scenario(topo, sx, tor, failed)
        assert result.condition is FailureCondition.CONDITION_3
        assert result.extra_hops == 1
        assert result.egress == left

    def test_condition_4_ping_pong(self, ring):
        """Fig 3(d): right neighbor's down + right-across both dead."""
        topo, (sx, right, left), tor = ring
        failed = frozenset(
            {link_key(sx, tor), link_key(right, tor), link_key(right, left)}
        )
        result = analyze_scenario(topo, sx, tor, failed)
        assert result.condition is FailureCondition.CONDITION_4
        assert result.extra_hops is None
        assert not result.fast_reroute_succeeds

    def test_condition_4_left_neighbor_also_dead(self, ring):
        """Right across dead AND left neighbor's down dead: bouncing."""
        topo, (sx, right, left), tor = ring
        failed = frozenset({link_key(sx, tor), link_key(sx, right), link_key(left, tor)})
        result = analyze_scenario(topo, sx, tor, failed)
        assert result.condition is FailureCondition.CONDITION_4

    def test_both_across_failed_degrades(self, ring):
        topo, (sx, right, left), tor = ring
        failed = frozenset({link_key(sx, tor), link_key(sx, right), link_key(sx, left)})
        result = analyze_scenario(topo, sx, tor, failed)
        assert result.condition is FailureCondition.BOTH_ACROSS_FAILED
        assert not result.fast_reroute_succeeds

    def test_whole_switch_failure_is_condition_3(self, ring):
        """§II-C: 'the condition that S9 fails belongs to the 3rd
        condition' — model a switch failure as all its links failing."""
        topo, (sx, right, left), tor = ring
        right_links = frozenset(
            link_key(l.a, l.b) for l in topo.links_of(right)
        ) | {link_key(sx, tor)}
        result = analyze_scenario(topo, sx, tor, right_links)
        assert result.condition is FailureCondition.CONDITION_3


class TestLargerRing(object):
    def test_condition_2_longer_relay(self, f2_8):
        """Ring of 4: three consecutive downward failures relay 3 hops."""
        members = [n.name for n in f2_8.pod_members(NodeKind.AGG, 0)]
        tor = f2_8.pod_members(NodeKind.TOR, 0)[-1].name
        failed = frozenset(
            {link_key(members[0], tor), link_key(members[1], tor), link_key(members[2], tor)}
        )
        result = analyze_scenario(f2_8, members[0], tor, failed)
        assert result.condition is FailureCondition.CONDITION_2
        assert result.extra_hops == 3
        assert result.egress == members[3]

    def test_blocked_rightward_is_condition_4(self, f2_8):
        """A broken across link mid-relay before any working downlink."""
        members = [n.name for n in f2_8.pod_members(NodeKind.AGG, 0)]
        tor = f2_8.pod_members(NodeKind.TOR, 0)[-1].name
        failed = frozenset(
            {
                link_key(members[0], tor),
                link_key(members[1], tor),
                link_key(members[1], members[2]),
            }
        )
        result = analyze_scenario(f2_8, members[0], tor, failed)
        assert result.condition is FailureCondition.CONDITION_4


class TestCoreRings:
    def test_core_condition_1(self, f2_8):
        """A core's downward link to the dest pod's agg, C2-style."""
        cores = [n.name for n in f2_8.pod_members(NodeKind.CORE, 0)]
        dest_pod = f2_8.pods_of_kind(NodeKind.AGG)[-1]
        dest_tor = f2_8.pod_members(NodeKind.TOR, dest_pod)[-1].name
        agg = next(
            n.name
            for n in f2_8.pod_members(NodeKind.AGG, dest_pod)
            if n.position == 0
        )
        result = analyze_scenario(
            f2_8, cores[0], dest_tor, frozenset({link_key(cores[0], agg)})
        )
        assert result.condition is FailureCondition.CONDITION_1
        assert result.egress == cores[1]

    def test_core_down_peer_resolution(self, f2_8):
        down_peer = core_down_peer(f2_8, dest_pod=0)
        assert down_peer("core-2-0") == "agg-0-2"

    def test_agg_down_peer_resolution(self, f2_8):
        down_peer = agg_down_peer(f2_8, "tor-0-1")
        assert down_peer("agg-0-3") == "tor-0-1"
        assert down_peer("agg-1-0") is None  # different pod, no link
