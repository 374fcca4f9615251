"""Exhaustive failure-condition census (§II-C's robustness claim, proved).

The paper claims F²Tree fast-reroutes "under all the failure conditions
with no more than 2 concurrent link failures", and that the 3-failure
pattern that defeats it (condition 4) "could rarely happen in real
network".  Instead of sampling, this module **enumerates every k-subset**
of the links relevant to a destination (the pod's downward rack links and
its across ring) and classifies each with the §II-C analyzer — turning
the claim into a checked theorem for a given fabric size, and quantifying
exactly how rare the condition-4 patterns are at k = 3, 4, ...
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import List, Sequence

from ..core.failure_analysis import analyze_scenario
from ..topology.graph import LinkKey, LinkKind, NodeKind, Topology, link_key


def relevant_links(topo: Topology, dest_tor: str) -> List[LinkKey]:
    """The links whose failure can affect downward delivery to one rack:
    every (agg, dest_tor) link plus the pod's across ring."""
    pod = topo.node(dest_tor).pod
    assert pod is not None
    ring = [n.name for n in topo.pod_members(NodeKind.AGG, pod)]
    keys: List[LinkKey] = []
    for agg in ring:
        if topo.links_between(agg, dest_tor):
            keys.append(link_key(agg, dest_tor))
    seen = set(keys)
    for agg in ring:
        for link in topo.links_of(agg):
            if link.kind is LinkKind.ACROSS:
                key = link_key(link.a, link.b)
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
    return keys


@dataclass
class CensusResult:
    """Exhaustive classification of all k-subsets for one (rack, k)."""

    dest_tor: str
    k: int
    total_subsets: int
    #: condition -> number of subsets, counted for the *affected* cases
    by_condition: Counter
    #: subsets that do not fail the rack's own downward path at any agg
    unaffected: int

    @property
    def fast_rerouted(self) -> int:
        return sum(
            count
            for condition, count in self.by_condition.items()
            if condition.fast_reroute_succeeds
        )

    @property
    def degraded(self) -> int:
        """Subsets where some agg's fast reroute fails (condition 4 or
        both across links dead)."""
        return sum(
            count
            for condition, count in self.by_condition.items()
            if not condition.fast_reroute_succeeds
        )

    @property
    def survival_ratio(self) -> float:
        """Fraction of subsets that leave every affected agg able to fast
        reroute."""
        affected = self.total_subsets - self.unaffected
        if affected == 0:
            return 1.0
        return self.fast_rerouted / affected


def exhaustive_condition_census(
    topo: Topology, dest_tor: str, k: int
) -> CensusResult:
    """Classify every k-subset of the relevant links.

    Each subset is scored by its **worst** affected switch: for every agg
    whose downward rack link is in the subset, classify; the subset counts
    as degraded if *any* of them cannot fast-reroute (that switch's
    traffic is lost until convergence).
    """
    links = relevant_links(topo, dest_tor)
    if k > len(links):
        raise ValueError(f"k={k} exceeds the {len(links)} relevant links")
    pod = topo.node(dest_tor).pod
    ring = [n.name for n in topo.pod_members(NodeKind.AGG, pod)]

    by_condition: Counter = Counter()
    unaffected = 0
    total = 0
    for subset in itertools.combinations(links, k):
        total += 1
        failed = frozenset(subset)
        affected_aggs = [
            agg for agg in ring if link_key(agg, dest_tor) in failed
        ]
        if not affected_aggs:
            unaffected += 1
            continue
        worst = None
        for agg in affected_aggs:
            analysis = analyze_scenario(topo, agg, dest_tor, failed)
            if worst is None or (
                not analysis.fast_reroute_succeeds
                and worst.fast_reroute_succeeds
            ):
                worst = analysis
        assert worst is not None
        by_condition[worst.condition] += 1
    return CensusResult(
        dest_tor=dest_tor,
        k=k,
        total_subsets=total,
        by_condition=by_condition,
        unaffected=unaffected,
    )


def render_census(results: Sequence[CensusResult]) -> str:
    lines = [
        "Exhaustive §II-C census: all k-subsets of the rack's relevant"
        " links (downward + across ring)",
        f"{'k':>3} {'subsets':>8} {'unaffected':>11} {'fast-rerouted':>14} "
        f"{'degraded':>9} {'survival':>9}",
    ]
    for r in results:
        lines.append(
            f"{r.k:>3} {r.total_subsets:>8} {r.unaffected:>11} "
            f"{r.fast_rerouted:>14} {r.degraded:>9} {r.survival_ratio:>9.1%}"
        )
    return "\n".join(lines)
