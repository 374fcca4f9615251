"""Table IV: the seven failure scenarios C1-C7.

Each scenario is defined relative to the flow under test (the traced
forwarding path from the leftmost to the rightmost host), exactly as §IV-A
describes: links "either along the path, or not on the path but may impact
the packet forwarding".  Given a traced path through a 3-layer topology,
:func:`build_scenario` produces the concrete links to fail and the §II-C
condition the scenario belongs to — which the experiments then verify
against both the analytical classifier and the simulated outcome.

========  ==================================================  ==========
label     failures                                            condition
========  ==================================================  ==========
C1        1 ToR<->agg link                                     1st
C2        1 core<->agg link                                    1st
C3        C1 + C2 together                                     1st
C4        2 adjacent ToR<->agg links in the dest pod           2nd
C5        all ToR<->agg links in the pod except the left       2nd
          across neighbor's
C6        1 ToR<->agg link + the right across link             3rd
C7        2 ToR<->agg links + 1 right across link              4th
========  ==================================================  ==========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.failure_analysis import FailureCondition
from ..topology.graph import LinkKey, NodeKind, Topology, TopologyError, link_key

ALL_LABELS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")
#: scenarios meaningful on topologies without across links
FAT_TREE_LABELS = ("C1", "C2", "C3", "C4", "C5")


@dataclass(frozen=True)
class ConditionScenario:
    """One instantiated Table IV scenario."""

    label: str
    description: str
    failed: Tuple[LinkKey, ...]
    #: the switch whose downward-link failure the condition is about
    sx: str
    #: destination ToR used for classification
    dest_tor: str
    expected_condition: FailureCondition
    #: expected extra hops during fast rerouting (None = reroute fails)
    expected_extra_hops: Optional[int]

    @property
    def applicable_to_fat_tree(self) -> bool:
        return self.label in FAT_TREE_LABELS


@dataclass(frozen=True)
class _PathRoles:
    tor_d: str
    agg_d: str
    core: str
    ring: Tuple[str, ...]  # dest-pod agg ring, position order
    index: int  # agg_d's position in the ring


def _roles(topo: Topology, path: Sequence[str]) -> _PathRoles:
    if len(path) < 7:
        raise TopologyError(
            f"need a 3-layer up/down path (7 nodes), got {len(path)}: {path}"
        )
    tor_d, agg_d, core = path[-2], path[-3], path[-4]
    for name, kind in ((tor_d, NodeKind.TOR), (agg_d, NodeKind.AGG), (core, NodeKind.CORE)):
        actual = topo.node(name).kind
        if actual is not kind:
            raise TopologyError(f"path role mismatch: {name} is {actual}, wanted {kind}")
    pod = topo.node(agg_d).pod
    assert pod is not None
    ring = tuple(n.name for n in topo.pod_members(NodeKind.AGG, pod))
    return _PathRoles(tor_d, agg_d, core, ring, ring.index(agg_d))


def build_scenario(label: str, topo: Topology, path: Sequence[str]) -> ConditionScenario:
    """Instantiate scenario ``label`` for the flow following ``path``."""
    roles = _roles(topo, path)
    ring, i, n = roles.ring, roles.index, len(roles.ring)
    right1 = ring[(i + 1) % n]
    left1 = ring[(i - 1) % n]
    agg_d, tor_d, core = roles.agg_d, roles.tor_d, roles.core

    if label == "C1":
        return ConditionScenario(
            label, "1 link between ToR and aggregation switch",
            (link_key(agg_d, tor_d),), agg_d, tor_d,
            FailureCondition.CONDITION_1, 1,
        )
    if label == "C2":
        return ConditionScenario(
            label, "1 link between core and aggregation switch",
            (link_key(core, agg_d),), core, tor_d,
            FailureCondition.CONDITION_1, 1,
        )
    if label == "C3":
        return ConditionScenario(
            label,
            "1 ToR-agg link and 1 core-agg link together",
            (link_key(agg_d, tor_d), link_key(core, agg_d)), agg_d, tor_d,
            FailureCondition.CONDITION_1, 2,
        )
    if label == "C4":
        if n < 3:
            raise TopologyError(f"C4 needs a pod of >= 3 aggs, ring is {n}")
        return ConditionScenario(
            label,
            "2 adjacent ToR-agg links in the same pod",
            (link_key(agg_d, tor_d), link_key(right1, tor_d)), agg_d, tor_d,
            FailureCondition.CONDITION_2, 2,
        )
    if label == "C5":
        if n < 3:
            raise TopologyError(f"C5 needs a pod of >= 3 aggs, ring is {n}")
        failed = tuple(
            link_key(member, tor_d) for member in ring if member != left1
        )
        return ConditionScenario(
            label,
            "all ToR-agg links in the pod except the left across neighbor's",
            failed, agg_d, tor_d,
            FailureCondition.CONDITION_2, n - 1,
        )
    if label == "C6":
        return ConditionScenario(
            label,
            "1 ToR-agg link and the right across link",
            (link_key(agg_d, tor_d), link_key(agg_d, right1)), agg_d, tor_d,
            FailureCondition.CONDITION_3, 1,
        )
    if label == "C7":
        if n < 3:
            raise TopologyError(f"C7 needs a pod of >= 3 aggs, ring is {n}")
        right2 = ring[(i + 2) % n]
        return ConditionScenario(
            label,
            "2 ToR-agg links and 1 right across link",
            (
                link_key(agg_d, tor_d),
                link_key(right1, tor_d),
                link_key(right1, right2),
            ),
            agg_d, tor_d,
            FailureCondition.CONDITION_4, None,
        )
    raise ValueError(f"unknown scenario label {label!r}")


def all_scenarios(
    topo: Topology, path: Sequence[str], labels: Sequence[str] = ALL_LABELS
) -> List[ConditionScenario]:
    """Instantiate several scenarios for the same flow."""
    return [build_scenario(label, topo, path) for label in labels]


def render_table_four(scenarios: Sequence[ConditionScenario]) -> str:
    """ASCII rendering of Table IV."""
    lines = [
        f"{'label':<6} {'condition':<12} {'expected extra hops':<20} failures"
    ]
    for s in scenarios:
        extra = "-" if s.expected_extra_hops is None else str(s.expected_extra_hops)
        failures = ", ".join(f"{a}<->{b}" for a, b in s.failed)
        lines.append(
            f"{s.label:<6} {s.expected_condition.name:<12} {extra:<20} {failures}"
        )
    return "\n".join(lines)
