"""Failure-condition taxonomy (§II-C).

Given a switch *Sx* whose downward link on a flow's path has failed, plus
the set of concurrently failed links, this module decides which of the
paper's four conditions holds and therefore whether F²Tree's fast reroute
succeeds — and at what path cost:

1. *Sx*'s right across link and the right neighbor's downward link work →
   reroute via the right neighbor (**+1 hop**);
2. a run of right neighbors also lost their downward links but the ring is
   intact up to some *Sy* with a working downward link → packets relay
   around the ring (**+k hops**);
3. *Sx*'s right across link failed, but its left across link and the left
   neighbor's downward link work → reroute leftward (**+1 hop**);
4. anything else — most famously *Sy*'s right across and downward links
   both failed — makes packets ping-pong on the ring until the control
   plane converges: fast reroute fails and recovery degrades to fat tree.

The classifier is *predictive*: experiments assert that the simulated
outcome (fast recovery or OSPF-time recovery, and the extra path length
during rerouting) matches what this module computed from the topology
alone.  The left walk is one hop at most by design: a left neighbor whose
own downward link failed would forward *rightward* (its longer-prefix
backup) straight back to Sx.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, FrozenSet, Optional

from ..topology.graph import LinkKey, LinkKind, NodeKind, Topology, TopologyError, link_key


class FailureCondition(enum.Enum):
    """The §II-C condition a downward-failure scenario belongs to."""

    CONDITION_1 = 1
    CONDITION_2 = 2
    CONDITION_3 = 3
    CONDITION_4 = 4
    #: both across links of Sx failed — the parenthetical degradation case
    BOTH_ACROSS_FAILED = 5
    #: Sx's downward link is not actually failed
    NO_DOWNWARD_FAILURE = 6

    @property
    def fast_reroute_succeeds(self) -> bool:
        return self in (
            FailureCondition.CONDITION_1,
            FailureCondition.CONDITION_2,
            FailureCondition.CONDITION_3,
        )


@dataclass(frozen=True)
class FailureAnalysis:
    """Classification result."""

    condition: FailureCondition
    #: extra hops relative to the pre-failure path while fast rerouting
    #: (None when fast reroute fails)
    extra_hops: Optional[int]
    #: the ring switch that finally forwards downward (None on failure)
    egress: Optional[str]
    detail: str

    @property
    def fast_reroute_succeeds(self) -> bool:
        return self.condition.fast_reroute_succeeds


def classify_downward_failure(
    topo: Topology,
    sx: str,
    down_peer_of: Callable[[str], Optional[str]],
    failed: FrozenSet[LinkKey],
) -> FailureAnalysis:
    """Classify a downward-link failure at ``sx`` (see module docstring).

    ``down_peer_of(member)`` names the ring member's downward next hop
    toward the destination (None when no such link exists).
    """
    node = topo.node(sx)
    if node.pod is None:
        raise TopologyError(f"{sx} is not in a pod")
    ring = topo.pod_members(node.kind, node.pod)
    size = len(ring)
    index = next(i for i, n in enumerate(ring) if n.name == sx)

    def down_alive(member: str) -> bool:
        peer = down_peer_of(member)
        if peer is None or not topo.links_between(member, peer):
            return False
        return link_key(member, peer) not in failed

    def across_alive(a: str, b: str) -> bool:
        links = [
            l for l in topo.links_between(a, b) if l.kind is LinkKind.ACROSS
        ]
        return bool(links) and link_key(a, b) not in failed

    if down_alive(sx):
        return FailureAnalysis(
            FailureCondition.NO_DOWNWARD_FAILURE, 0, sx,
            f"{sx}'s downward link is up",
        )

    right = ring[(index + 1) % size].name
    left = ring[(index - 1) % size].name
    right_across_ok = across_alive(sx, right)
    left_across_ok = across_alive(sx, left)

    if not right_across_ok and not left_across_ok:
        return FailureAnalysis(
            FailureCondition.BOTH_ACROSS_FAILED, None, None,
            f"both across links of {sx} failed; degrades to fat tree",
        )

    if right_across_ok:
        # walk the ring rightward along consecutive across links
        previous = sx
        for step in range(1, size):
            current = ring[(index + step) % size].name
            if not across_alive(previous, current):
                break
            if down_alive(current):
                condition = (
                    FailureCondition.CONDITION_1
                    if step == 1
                    else FailureCondition.CONDITION_2
                )
                return FailureAnalysis(
                    condition, step, current,
                    f"rightward relay of {step} hop(s) reaches {current}",
                )
            previous = current
        return FailureAnalysis(
            FailureCondition.CONDITION_4, None, None,
            f"rightward walk from {sx} blocked before a working downward "
            f"link; packets ping-pong until the control plane converges",
        )

    # right across failed; F2Tree falls back to the left (shorter-prefix) route
    if down_alive(left):
        return FailureAnalysis(
            FailureCondition.CONDITION_3, 1, left,
            f"right across link failed; leftward reroute via {left}",
        )
    return FailureAnalysis(
        FailureCondition.CONDITION_4, None, None,
        f"left neighbor {left} has no working downward link and would "
        f"bounce packets back rightward",
    )


def agg_down_peer(topo: Topology, dest_tor: str) -> Callable[[str], Optional[str]]:
    """``down_peer_of`` for aggregation rings: every agg's downward next
    hop toward the destination is the destination ToR itself."""

    def down_peer(member: str) -> Optional[str]:
        return dest_tor if topo.links_between(member, dest_tor) else None

    return down_peer


def core_down_peer(topo: Topology, dest_pod: int) -> Callable[[str], Optional[str]]:
    """``down_peer_of`` for core rings: core group *g* reaches the
    destination pod through that pod's position-*g* aggregation switch."""

    def down_peer(member: str) -> Optional[str]:
        group = topo.node(member).pod
        assert group is not None
        candidates = [
            n.name
            for n in topo.pod_members(NodeKind.AGG, dest_pod)
            if n.position == group and topo.links_between(member, n.name)
        ]
        return candidates[0] if candidates else None

    return down_peer


def analyze_scenario(
    topo: Topology,
    sx: str,
    dest_tor: str,
    failed: FrozenSet[LinkKey],
) -> FailureAnalysis:
    """Convenience wrapper choosing the right ``down_peer_of`` for ``sx``."""
    node = topo.node(sx)
    if node.kind is NodeKind.CORE:
        dest_pod = topo.node(dest_tor).pod
        assert dest_pod is not None
        return classify_downward_failure(
            topo, sx, core_down_peer(topo, dest_pod), failed
        )
    return classify_downward_failure(topo, sx, agg_down_peer(topo, dest_tor), failed)
