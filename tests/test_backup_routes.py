"""Tests for the backup static-route configuration (§II-B, Table II)."""

from __future__ import annotations

import pytest

from repro.core.backup_routes import (
    backup_prefix_chain,
    backup_routes_for,
    configure_backup_routes,
    render_routing_table,
    ring_neighbors_of,
    ring_preference_violation,
    RingNeighbors,
)
from repro.core.f2tree import f2tree
from repro.dataplane.network import Network
from repro.topology.addressing import COVERING_PREFIX, DCN_PREFIX
from repro.topology.graph import NodeKind


class TestRingNeighbors:
    def test_three_ring_right_and_left(self, f2_6):
        """Fig 3's pod: S8's right neighbor is S9, left is S10."""
        members = [n.name for n in f2_6.pod_members(NodeKind.AGG, 0)]
        neighbors = ring_neighbors_of(f2_6, members[0])
        assert neighbors is not None
        assert neighbors.right == members[1]
        assert neighbors.left == members[2]  # wraps to the rightmost

    def test_wrap_around_for_rightmost(self, f2_6):
        members = [n.name for n in f2_6.pod_members(NodeKind.AGG, 0)]
        neighbors = ring_neighbors_of(f2_6, members[-1])
        assert neighbors.right == members[0]
        assert neighbors.left == members[-2]

    def test_two_ring_right_equals_left(self, prototype4):
        topo, _ = prototype4
        neighbors = ring_neighbors_of(topo, "agg-0-0")
        assert neighbors.right == neighbors.left == "agg-0-1"
        assert neighbors.ordered == ("agg-0-1",)

    def test_switch_without_across_links_returns_none(self, f2_6):
        assert ring_neighbors_of(f2_6, "tor-0-0") is None

    def test_four_across_order_rightward_first(self):
        topo = f2tree(8, across_ports=4)
        members = [n.name for n in topo.pod_members(NodeKind.AGG, 0)]
        neighbors = ring_neighbors_of(topo, members[0])
        # ring of 4 with distance-2 links: right-1, opposite(right-2), left-1
        assert neighbors.ordered == (members[1], members[2], members[3])


class TestRingPreferenceRule:
    """The one reading of §II-B's fall-through preference both loop
    checkers apply: a static edge is justified only toward a ring
    neighbor whose more-preferred siblings are all dead."""

    RING = RingNeighbors(("right", "left"))

    def test_first_preference_is_always_justified(self):
        assert ring_preference_violation(
            self.RING, "s", "right", lambda peer: True
        ) is None

    def test_later_preference_needs_earlier_ones_dead(self):
        assert ring_preference_violation(
            self.RING, "s", "left", lambda peer: peer != "right"
        ) is None
        assert ring_preference_violation(
            self.RING, "s", "left", lambda peer: True
        ) == (
            "unjustified static edge s->left: more-preferred ring "
            "neighbor right is still alive"
        )

    def test_ring_less_switch_is_never_justified(self):
        assert ring_preference_violation(
            None, "s", "right", lambda peer: False
        ) == "static edge s->right on a ring-less switch"

    def test_hop_off_the_ring_is_never_justified(self):
        # even once every ring neighbor is dead
        assert ring_preference_violation(
            self.RING, "s", "core", lambda peer: False
        ) == "static edge s->core leaves the ring entirely"


class TestPrefixChain:
    def test_matches_paper_table_two(self):
        chain = backup_prefix_chain(2)
        assert chain[0] == DCN_PREFIX
        assert chain[1] == COVERING_PREFIX

    def test_chain_nests(self):
        chain = backup_prefix_chain(4)
        for shorter, longer in zip(chain[1:], chain):
            assert shorter.contains(longer)
            assert shorter.length == longer.length - 1


class TestBackupRoutesFor:
    def test_agg_gets_two_routes_right_then_left(self, f2_6):
        members = [n.name for n in f2_6.pod_members(NodeKind.AGG, 0)]
        routes = backup_routes_for(f2_6, members[0])
        assert len(routes) == 2
        assert routes[0].prefix == DCN_PREFIX and routes[0].next_hop == members[1]
        assert routes[1].prefix == COVERING_PREFIX and routes[1].next_hop == members[2]

    def test_right_route_has_longer_prefix(self, f2_6):
        """§II-B's loop-avoidance rule: longer prefix -> rightward."""
        members = [n.name for n in f2_6.pod_members(NodeKind.AGG, 0)]
        routes = backup_routes_for(f2_6, members[0])
        assert routes[0].prefix.length > routes[1].prefix.length

    def test_two_ring_gets_single_route(self, prototype4):
        topo, _ = prototype4
        routes = backup_routes_for(topo, "agg-0-0")
        assert len(routes) == 1
        assert routes[0].next_hop == "agg-0-1"

    def test_non_ring_switch_gets_nothing(self, f2_6):
        assert backup_routes_for(f2_6, "tor-0-0") == []

    def test_tie_break_none_yields_equal_prefix_pair(self, f2_6):
        members = [n.name for n in f2_6.pod_members(NodeKind.AGG, 0)]
        routes = backup_routes_for(f2_6, members[0], tie_break="none")
        assert {r.prefix for r in routes} == {DCN_PREFIX}
        assert {r.next_hop for r in routes} == {members[1], members[2]}

    def test_unknown_tie_break_rejected(self, f2_6):
        members = [n.name for n in f2_6.pod_members(NodeKind.AGG, 0)]
        with pytest.raises(ValueError):
            backup_routes_for(f2_6, members[0], tie_break="bogus")


class TestConfigureNetwork:
    def test_installs_on_every_ring_switch(self, f2_6):
        network = Network(f2_6)
        configured = configure_backup_routes(network)
        ring_switches = {
            n.name for n in f2_6.nodes_of_kind(NodeKind.AGG, NodeKind.CORE)
        }
        assert set(configured) == ring_switches
        for name in ring_switches:
            static = [
                e
                for e in network.switch(name).fib.entries()
                if e.source == "static"
            ]
            kind = f2_6.node(name).kind
            # 6-port: agg rings have 3 members (2 routes); core rings have
            # 2 members (a double link: right == left, one route suffices)
            expected = 2 if kind is NodeKind.AGG else 1
            assert len(static) == expected, name

    def test_fat_tree_yields_no_configuration(self, fat8):
        network = Network(fat8)
        assert configure_backup_routes(network) == {}

    def test_routes_present_in_fib_before_any_failure(self, f2_6):
        """Pre-installed backups avoid FIB-update time (§II-B)."""
        network = Network(f2_6)
        configure_backup_routes(network)
        agg = network.switch(f2_6.pod_members(NodeKind.AGG, 0)[0].name)
        assert agg.fib.exact(DCN_PREFIX) is not None
        assert agg.fib.exact(COVERING_PREFIX) is not None

    def test_render_routing_table_mentions_backups(self, f2_6):
        network = Network(f2_6)
        configure_backup_routes(network)
        agg = f2_6.pod_members(NodeKind.AGG, 0)[0].name
        text = render_routing_table(network, agg)
        assert str(DCN_PREFIX) in text
        assert str(COVERING_PREFIX) in text
        assert "static" in text
