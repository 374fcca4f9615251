"""The four static checks and the verification report.

Each check interrogates a :class:`~repro.verify.model.StaticNetworkModel`
and emits :class:`Finding`\\ s with one of four severities:

``error``
    A refutation of a property the paper claims — single-downward-failure
    coverage broken, a forwarding loop the prefix-length rule should have
    prevented, a static prefix shadowing a learned route, a miswired
    ring.  Any error makes the verdict ``REFUTED``.
``caveat``
    Behaviour the paper *documents* as a limitation, proved present:
    the two-failure transient ring loop (every static edge justified
    under the fall-through preference rule), or a multi-failure
    transient black hole that reconvergence will heal.  Caveats do not
    refute certification — they are its fine print, now machine-checked.
``warning``
    Degradation on an unprotected switch (no across links, so no claim
    is being made — e.g. the plain fat-tree baseline's aggs), or a
    backup prefix that also covers switch loopbacks (the wider 4-across
    chains do; the learned ``/32`` still wins the lookup).
``info``
    Structural notes (e.g. a topology with no across rings at all).

The loop-freedom enumeration is exhaustive for failure sets up to size
2 and seeded-random above that.  It prunes with one soundness argument:
removing edges from a forwarding graph cannot create a cycle, so a
failure set can only introduce a defect if it forces at least one
switch *through* its baseline entry (all of that entry's next hops
dead).  Only the failed links' endpoint switches re-resolve, so per
failure set we re-resolve at most four switches and walk the forwarding
graph from the fallen ones.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import (
    Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple,
)

from ..core.backup_routes import RING_KINDS, backup_prefix_chain, ring_preference_violation
from ..net.fib import LOCAL, FibEntry, NextHop
from ..net.forwarding import (
    LOOP, Defect, ForwardingEdges, Match, Successors, forwarding_graph, live_match, out_edges,
    scan,
)
from ..sim.randomness import RandomStreams
from ..topology.graph import Link, LinkKey, LinkKind, NodeKind, Topology, link_key, reachable
from .model import _LAYER_RANK, DestSpec, FailedLinks, StaticNetworkModel

# check names
COVERAGE = "coverage"
LOOP_FREEDOM = "loop-freedom"
PREFIX_SOUNDNESS = "prefix-soundness"
WIRING = "wiring"
ALL_CHECKS = (COVERAGE, LOOP_FREEDOM, PREFIX_SOUNDNESS, WIRING)

# severities
SEV_ERROR = "error"
SEV_CAVEAT = "caveat"
SEV_WARNING = "warning"
SEV_INFO = "info"

#: recorded findings are capped per (check, defect); totals stay exact
MAX_FINDINGS_PER_DEFECT = 5
#: defects extracted from one forwarding-graph walk
MAX_DEFECTS_PER_SCAN = 3


@dataclass(frozen=True)
class Witness:
    """A concrete counterexample: fail these links, send toward this
    destination, observe this loop or dead end."""

    kind: str  # "loop" | "blackhole"
    #: failed links as canonical endpoint pairs (repeated for parallels)
    failed: Tuple[LinkKey, ...]
    destination: str  # destination ToR name
    subnet: str  # its /24, as text
    #: cycle members in forwarding order, or the walk ending at the hole
    nodes: Tuple[str, ...]
    #: switch where the defect manifests
    at: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "failed": [list(pair) for pair in self.failed],
            "destination": self.destination,
            "subnet": self.subnet,
            "nodes": list(self.nodes),
            "at": self.at,
        }


@dataclass(frozen=True)
class Finding:
    """One named defect (or certified caveat) with its evidence."""

    check: str
    defect: str
    severity: str
    subject: str
    detail: str
    witness: Optional[Witness] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "check": self.check,
            "defect": self.defect,
            "severity": self.severity,
            "subject": self.subject,
            "detail": self.detail,
        }
        if self.witness is not None:
            data["witness"] = self.witness.to_dict()
        return data

    def __str__(self) -> str:
        return (
            f"[{self.severity}] {self.check}/{self.defect} "
            f"{self.subject}: {self.detail}"
        )


class _Recorder:
    """Collects findings with per-defect caps and exact totals."""

    def __init__(self, cap: int = MAX_FINDINGS_PER_DEFECT) -> None:
        self.cap = cap
        self.findings: List[Finding] = []
        self.totals: Counter = Counter()

    def add(self, finding: Finding) -> None:
        key = (finding.check, finding.defect, finding.severity)
        self.totals[key] += 1
        if self.totals[key] <= self.cap:
            self.findings.append(finding)

    def count(self, severity: str) -> int:
        return sum(n for (_, _, sev), n in self.totals.items() if sev == severity)


@dataclass
class VerifyReport:
    """The deterministic result of one static verification run."""

    topology: str
    family: str
    ports: Optional[int]
    across_ports: Optional[int]
    max_failures: int
    tie_break: str
    findings: List[Finding]
    #: exact per-(check, defect, severity) totals (findings are capped)
    totals: Dict[str, int]
    stats: Dict[str, Any]

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEV_ERROR]

    @property
    def caveats(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEV_CAVEAT]

    def severity_total(self, severity: str) -> int:
        """Exact finding count at a severity (``findings`` itself is
        capped per defect; the totals counter is not)."""
        return sum(
            n for key, n in self.totals.items()
            if key.endswith(f"/{severity}")
        )

    @property
    def certified(self) -> bool:
        return not any(key.endswith(f"/{SEV_ERROR}") for key in self.totals)

    @property
    def verdict(self) -> str:
        return "CERTIFIED" if self.certified else "REFUTED"

    def refuted_checks(self) -> List[str]:
        """Checks with at least one error, sorted."""
        return sorted({
            key.split("/", 1)[0]
            for key, n in self.totals.items()
            if n and key.endswith(f"/{SEV_ERROR}")
        })

    def to_dict(self) -> Dict[str, Any]:
        return {
            "topology": self.topology,
            "family": self.family,
            "ports": self.ports,
            "across_ports": self.across_ports,
            "max_failures": self.max_failures,
            "tie_break": self.tie_break,
            "verdict": self.verdict,
            "certified": self.certified,
            "refuted_checks": self.refuted_checks(),
            "totals": dict(sorted(self.totals.items())),
            "stats": self.stats,
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self) -> str:
        # canonical key order: verification reports are diffed and
        # committed as artifacts, so byte-identity matters here too
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self, limit: int = 20) -> str:
        sev_counts = Counter()
        for key, n in self.totals.items():
            sev_counts[key.rsplit("/", 1)[1]] += n
        lines = [
            f"repro verify — {self.topology} "
            f"(family={self.family}, max_failures={self.max_failures})",
            f"verdict: {self.verdict} "
            f"({sev_counts[SEV_ERROR]} errors, {sev_counts[SEV_CAVEAT]} caveats, "
            f"{sev_counts[SEV_WARNING]} warnings)",
        ]
        for check in ALL_CHECKS:
            stat = self.stats.get(check)
            if stat:
                rendered = ", ".join(f"{k}={v}" for k, v in stat.items())
                lines.append(f"  {check:<16} {rendered}")
        shown = self.findings[:limit]
        if shown:
            lines.append("findings:")
            lines.extend(f"  {finding}" for finding in shown)
            hidden = sum(self.totals.values()) - len(shown)
            if hidden > 0:
                lines.append(f"  ... and {hidden} more (see --json)")
        return "\n".join(lines)


# ===================================================================
# precomputed per-destination analysis state
# ===================================================================


class _Analysis:
    """Baseline chains, resolutions, and forwarding graphs per destination."""

    def __init__(self, model: StaticNetworkModel) -> None:
        self.model = model
        self.dests: List[DestSpec] = model.dests
        #: switch -> [LPM chain per destination index]
        self.chains: Dict[str, List[List[FibEntry]]] = {}
        #: switch -> [baseline live match per destination index]
        self.base: Dict[str, List[Match]] = {}
        #: switch -> [frozenset of baseline hops per destination index]
        self.base_hops: Dict[str, List[FrozenSet[NextHop]]] = {}
        #: switch -> peer -> destination indices whose baseline entry
        #: depends *solely* on that peer (the fall-through triggers)
        self.sole_dep: Dict[str, Dict[str, List[int]]] = {}
        for switch in model.switches:
            chains = [model.chain(switch, d.address) for d in self.dests]
            self.chains[switch] = chains
            resolved = [
                live_match(chain, model.alive(switch, {}))
                for chain in chains
            ]
            self.base[switch] = resolved
            self.base_hops[switch] = [frozenset(hops) for _, hops, _ in resolved]
            deps: Dict[str, List[int]] = {}
            for j, (_entry, hops, _depth) in enumerate(resolved):
                if len(hops) == 1 and hops[0] != LOCAL:
                    deps.setdefault(str(hops[0]), []).append(j)
            self.sole_dep[switch] = deps
        #: per destination: the baseline forwarding graph and the
        #: switches that deliver (the destination ToR)
        self.base_edges: List[ForwardingEdges] = []
        self.base_delivers: List[Set[str]] = []
        for j in range(len(self.dests)):
            edges, delivers = forwarding_graph(
                (switch, self.base[switch][j]) for switch in model.switches
            )
            self.base_edges.append(edges)
            self.base_delivers.append(delivers)

    def defects(
        self, j: int, failed: FailedLinks, changed: Tuple[str, ...], roots: Sequence[str]
    ) -> Iterator[Defect]:
        """The first :data:`MAX_DEFECTS_PER_SCAN` loops and dead ends of
        destination ``j``'s forwarding graph under ``failed``, walked
        from ``roots``.  Only the ``changed`` switches (failed-link
        endpoints) re-resolve; every other switch keeps its baseline
        edges.  No re-resolution moves a switch off or onto a ``LOCAL``
        entry, so the baseline delivering set stands."""
        override = {
            switch: out_edges(live_match(
                self.chains[switch][j], self.model.alive(switch, failed)
            ))
            for switch in changed
        }
        base = self.base_edges[j]
        succ: Successors = (
            lambda name: override[name] if name in override
            else base.get(name)
        )
        return islice(
            scan(succ, roots, self.base_delivers[j]), MAX_DEFECTS_PER_SCAN
        )


def _check_baseline(analysis: _Analysis, rec: _Recorder) -> None:
    """Sanity precondition: with no failures, every destination's
    forwarding graph is a DAG whose only sink is the destination ToR."""
    model = analysis.model
    for j, dest in enumerate(analysis.dests):
        for switch in model.switches:
            entry, _hops, _depth = analysis.base[switch][j]
            if entry is None:
                rec.add(Finding(
                    COVERAGE, "baseline-unroutable", SEV_ERROR, switch,
                    f"no route toward {dest.tor} ({dest.subnet}) even with "
                    f"every link up",
                ))
            elif entry.source == "static":
                rec.add(Finding(
                    PREFIX_SOUNDNESS, "static-shadows-routed", SEV_ERROR,
                    switch,
                    f"baseline lookup for {dest.subnet} resolves to the "
                    f"static {entry.prefix} via {entry.next_hops} instead "
                    f"of a learned route",
                ))
        for defect in analysis.defects(j, {}, (), model.switches):
            # dead ends are already reported per switch above
            if defect.kind == LOOP:
                rec.add(_defect_finding(
                    COVERAGE, defect, dest, {}, severity=SEV_ERROR,
                    defect_names=("baseline-cycle", "baseline-unroutable"),
                ))


def _classify_cycle(
    model: StaticNetworkModel,
    cycle: Tuple[Tuple[str, str, FibEntry], ...],
    failed: FailedLinks,
) -> Tuple[str, str]:
    """(severity, reason) for a forwarding cycle.

    The paper's accepted transient loop is one in which *every* edge is
    a static ring route that the fall-through preference rule
    (:func:`~repro.core.backup_routes.ring_preference_violation`)
    genuinely takes.  Anything else — a routed edge, or a static edge
    the rule would not take — violates loop-freedom outright.
    """
    for node, nh, entry in cycle:
        if entry.source != "static":
            return SEV_ERROR, (
                f"cycle uses routed edge {node}->{nh} ({entry.prefix})"
            )
        reason = ring_preference_violation(
            model.ring_neighbors.get(node), node, nh,
            model.alive(node, failed),
        )
        if reason is not None:
            return SEV_ERROR, reason
    return SEV_CAVEAT, (
        "every edge is a justified static ring route — the paper's "
        "documented transient multi-failure ring loop"
    )


def _failed_pairs(failed: FailedLinks) -> Tuple[LinkKey, ...]:
    pairs: List[LinkKey] = []
    for pair in sorted(failed):
        pairs.extend([pair] * failed[pair])
    return tuple(pairs)


def _defect_finding(
    check: str,
    defect: Defect,
    dest: DestSpec,
    failed: FailedLinks,
    severity: str,
    detail: str = "",
    defect_names: Tuple[str, str] = ("forwarding-loop", "blackhole"),
) -> Finding:
    loop_name, hole_name = defect_names
    witness = Witness(
        kind=defect.kind,
        failed=_failed_pairs(failed),
        destination=dest.tor,
        subnet=str(dest.subnet),
        nodes=defect.nodes,
        at=defect.nodes[0] if defect.kind == LOOP else defect.nodes[-1],
    )
    if defect.kind == LOOP:
        text = detail or f"forwarding cycle {'->'.join(defect.nodes)}"
        return Finding(
            check, loop_name, severity, witness.at,
            f"toward {dest.tor} ({dest.subnet}) after failing "
            f"{list(witness.failed)}: {text}",
            witness,
        )
    text = detail or (
        f"packets toward {dest.tor} ({dest.subnet}) die at {witness.at} "
        f"after failing {list(witness.failed)}"
    )
    return Finding(check, hole_name, severity, witness.at, text, witness)


# ===================================================================
# check 1: coverage
# ===================================================================


def _check_coverage(analysis: _Analysis, rec: _Recorder) -> Dict[str, Any]:
    model = analysis.model
    covered: Counter = Counter()
    downward_total = 0
    uncovered = 0

    for switch in model.switches:
        node = model.topo.node(switch)
        if _LAYER_RANK[node.kind] < 2:
            continue
        is_ring = model.should_be_protected(switch)
        seen_peers: set = set()
        for link in model.downward_links(switch):
            peer = link.other(switch)
            if peer in seen_peers:
                continue  # parallel links are judged once, as a group
            seen_peers.add(peer)
            served = [
                j for j, hops in enumerate(analysis.base_hops[switch])
                if peer in hops
            ]
            downward_total += 1
            if not served:
                continue
            if model.link_count[switch][peer] > 1:
                covered["parallel"] += len(served)
                continue
            failed = {link_key(switch, peer): 1}
            endpoints = (switch, peer)
            for j in served:
                entry, _live, _depth = live_match(
                    analysis.chains[switch][j],
                    model.alive(switch, failed),
                )
                dest = analysis.dests[j]
                if entry is None:
                    uncovered += 1
                    severity = SEV_ERROR if is_ring else SEV_WARNING
                    defect = (
                        "uncovered-downward-link" if is_ring
                        else "unprotected-downward-link"
                    )
                    rec.add(Finding(
                        COVERAGE, defect, severity, switch,
                        f"downward link {switch}<->{peer}: no fall-through "
                        f"for {dest.tor} ({dest.subnet}) — lookup exhausts "
                        f"the FIB",
                        Witness(
                            "blackhole", _failed_pairs(failed), dest.tor,
                            str(dest.subnet), (switch,), switch,
                        ),
                    ))
                    continue
                if entry is analysis.base[switch][j][0]:
                    covered["ecmp"] += 1
                    continue
                covered["backup" if entry.source == "static" else "reroute"] += 1
                for defect in analysis.defects(j, failed, endpoints, (switch,)):
                    if defect.kind == LOOP:
                        severity, reason = _classify_cycle(
                            model, defect.cycle, failed
                        )
                        # a single downward failure must never loop
                        rec.add(_defect_finding(
                            COVERAGE, defect, dest, failed,
                            severity=SEV_ERROR, detail=reason,
                        ))
                    else:
                        uncovered += 1
                        rec.add(_defect_finding(
                            COVERAGE, defect, dest, failed,
                            severity=SEV_ERROR if is_ring else SEV_WARNING,
                            defect_names=(
                                "forwarding-loop", "uncovered-downward-link",
                            ),
                        ))
    return {
        "downward_links": downward_total,
        "fallthrough_backup": covered["backup"],
        "ecmp": covered["ecmp"],
        "parallel": covered["parallel"],
        "reroute": covered["reroute"],
        "uncovered": uncovered,
    }


# ===================================================================
# check 2: loop freedom under k failures
# ===================================================================


def _examine_failure_set(
    analysis: _Analysis,
    links: Sequence[Link],
    rec: _Recorder,
    stats: Counter,
) -> None:
    model = analysis.model
    failed: Dict[LinkKey, int] = {}
    for link in links:
        key = link_key(link.a, link.b)
        failed[key] = failed.get(key, 0) + 1
    endpoints = tuple(sorted({link.a for link in links}
                            | {link.b for link in links}))
    killed: Dict[str, set] = {}
    for switch in endpoints:
        peers = {
            link.other(switch) for link in links if switch in (link.a, link.b)
        }
        alive = model.alive(switch, failed)
        dead = {p for p in peers if not alive(p)}
        if dead:
            killed[switch] = dead
    if not killed:
        return  # every endpoint keeps all its peers: resolution unchanged

    fallen_by_dest: Dict[int, List[str]] = {}
    for switch, dead in killed.items():
        if len(dead) == 1:
            peer = next(iter(dead))
            for j in analysis.sole_dep[switch].get(peer, ()):
                fallen_by_dest.setdefault(j, []).append(switch)
        else:
            hops_by_dest = analysis.base_hops[switch]
            for j in range(len(analysis.dests)):
                hops = hops_by_dest[j]
                if hops and hops <= dead:
                    fallen_by_dest.setdefault(j, []).append(switch)
    if not fallen_by_dest:
        return  # edges only shrink: no new cycle, no black hole

    # the live fabric's components under this failure set, walked once
    # per component and shared by every destination's dead ends; a
    # switch's dead peers are exactly the ``killed`` ones
    component: Dict[str, Set[str]] = {}

    def component_of(node: str) -> Set[str]:
        if node not in component:
            members = reachable(node, lambda switch: (
                model.link_count[switch].keys() - killed[switch]
                if switch in killed else model.link_count[switch].keys()
            ))
            component.update(dict.fromkeys(members, members))
        return component[node]

    k = len(links)
    for j in sorted(fallen_by_dest):
        stats["fallthrough_states"] += 1
        roots = tuple(sorted(fallen_by_dest[j]))
        dest = analysis.dests[j]
        # an endpoint that kept every baseline hop toward j keeps its
        # baseline match, so only the others re-resolve
        changed = tuple(
            switch for switch, dead in killed.items()
            if not dead.isdisjoint(analysis.base_hops[switch][j])
        )
        for defect in analysis.defects(j, failed, changed, roots):
            if defect.kind == LOOP:
                severity, reason = _classify_cycle(model, defect.cycle, failed)
                if k == 1:
                    severity = SEV_ERROR  # single failures must never loop
                stats["caveat_cycles" if severity == SEV_CAVEAT
                      else "error_cycles"] += 1
                rec.add(_defect_finding(
                    LOOP_FREEDOM, defect, dest, failed,
                    severity=severity,
                    detail=reason,
                    defect_names=("transient-ring-loop"
                                  if severity == SEV_CAVEAT
                                  else "forwarding-loop", "blackhole"),
                ))
            else:
                hole = defect.nodes[-1]
                protected = model.should_be_protected(hole)
                if k == 1:
                    severity = SEV_ERROR if protected else SEV_WARNING
                    name = "blackhole"
                elif dest.tor not in component_of(hole):
                    stats["partitioned"] += 1
                    continue  # no scheme can forward across a cut
                else:
                    severity = SEV_CAVEAT if protected else SEV_WARNING
                    name = "transient-blackhole"
                stats["blackholes"] += 1
                rec.add(_defect_finding(
                    LOOP_FREEDOM, defect, dest, failed,
                    severity=severity,
                    defect_names=("forwarding-loop", name),
                ))


def _check_loop_freedom(
    analysis: _Analysis,
    rec: _Recorder,
    max_failures: int,
    samples: int,
    seed: int,
) -> Dict[str, Any]:
    model = analysis.model
    links = model.fabric_links
    stats: Counter = Counter()

    def is_downward(link: Link) -> bool:
        return (
            _LAYER_RANK[model.topo.node(link.a).kind]
            != _LAYER_RANK[model.topo.node(link.b).kind]
        )

    if max_failures >= 1:
        # downward singles are the coverage check's domain; the k=1 sweep
        # here covers the remaining (equal-layer, i.e. across) links
        for link in links:
            if is_downward(link):
                continue
            stats["k1"] += 1
            _examine_failure_set(analysis, (link,), rec, stats)
    if max_failures >= 2:
        n = len(links)
        for i in range(n):
            for jdx in range(i + 1, n):
                stats["k2"] += 1
                _examine_failure_set(
                    analysis, (links[i], links[jdx]), rec, stats
                )
    if max_failures >= 3:
        rng = RandomStreams(seed).stream("verify-loop-sampling")
        for k in range(3, max_failures + 1):
            drawn: set = set()
            budget = min(samples, math.comb(len(links), k))
            while len(drawn) < budget:
                picked = tuple(sorted(rng.sample(range(len(links)), k)))
                if picked in drawn:
                    continue
                drawn.add(picked)
                stats[f"k{k}"] += 1
                _examine_failure_set(
                    analysis, tuple(links[i] for i in picked), rec, stats
                )
    return {
        "failure_sets": {
            key: stats[key]
            for key in sorted(stats) if key.startswith("k")
        },
        "fallthrough_states": stats["fallthrough_states"],
        "caveat_cycles": stats["caveat_cycles"],
        "error_cycles": stats["error_cycles"],
        "blackholes": stats["blackholes"],
        "partitioned": stats["partitioned"],
    }


# ===================================================================
# check 3: prefix-scheme soundness
# ===================================================================


def _check_prefix_soundness(
    analysis: _Analysis, rec: _Recorder
) -> Dict[str, Any]:
    model = analysis.model
    ring_switches = 0
    statics_total = 0
    # loopbacks a backup may swallow: every switch that is not a rack
    # switch (whose /32 sits inside its own subnet anyway)
    loopbacks = [
        (node.ip, node.name)
        for node in map(model.topo.node, model.switches)
        if node.ip is not None and node.kind not in (NodeKind.TOR, NodeKind.LEAF)
    ]
    for switch in model.switches:
        entries = model.fibs[switch]
        statics = [e for e in entries if e.source == "static"]
        learned = [e for e in entries if e.source != "static"]

        seen: Dict = {}
        for entry in entries:
            if entry.prefix in seen:
                rec.add(Finding(
                    PREFIX_SOUNDNESS, "duplicate-prefix", SEV_ERROR, switch,
                    f"{entry.prefix} installed twice ({seen[entry.prefix]} "
                    f"and {entry.source}) — LPM order between them is "
                    f"undefined",
                ))
            else:
                seen[entry.prefix] = entry.source
        if not statics or not learned:
            continue
        ring_switches += 1
        statics_total += len(statics)

        min_learned = min(e.prefix.length for e in learned)
        for entry in statics:
            if entry.prefix.length >= min_learned:
                rec.add(Finding(
                    PREFIX_SOUNDNESS, "backup-not-shorter", SEV_ERROR, switch,
                    f"static {entry.prefix} (/{entry.prefix.length}) is not "
                    f"strictly shorter than every learned prefix (shortest "
                    f"learned is /{min_learned}) — it can shadow live routes",
                ))
        ordered = sorted(statics, key=lambda e: -e.prefix.length)
        for longer, shorter in zip(ordered, ordered[1:]):
            if not shorter.prefix.contains(longer.prefix.address(0)):
                rec.add(Finding(
                    PREFIX_SOUNDNESS, "backup-not-nested", SEV_ERROR, switch,
                    f"static {shorter.prefix} does not cover static "
                    f"{longer.prefix}: the fall-through chain has a gap",
                ))
        longest = ordered[0].prefix
        missed = [
            d for d in analysis.dests if not longest.contains(d.address)
        ]
        if missed:
            rec.add(Finding(
                PREFIX_SOUNDNESS, "backup-misses-subnet", SEV_ERROR, switch,
                f"backup prefix {longest} does not cover "
                f"{len(missed)} rack subnet(s), e.g. {missed[0].subnet}",
            ))
        for entry in ordered:
            covered = [lb for lb in loopbacks if entry.prefix.contains(lb[0])]
            if covered:
                ip, owner = covered[0]
                rec.add(Finding(
                    PREFIX_SOUNDNESS, "backup-covers-loopback", SEV_WARNING,
                    switch,
                    f"static {entry.prefix} also covers {len(covered)} switch "
                    f"loopback(s), e.g. {ip} ({owner}); the learned /32s "
                    f"still win the lookup",
                ))

        ring = model.ring_neighbors.get(switch)
        if ring is not None:
            expected_chain = backup_prefix_chain(len(ring.ordered))
            expected = {
                prefix: (neighbor,)
                for prefix, neighbor in zip(expected_chain, ring.ordered)
            }
            actual = {e.prefix: e.next_hops for e in statics}
            if actual != expected:
                rec.add(Finding(
                    PREFIX_SOUNDNESS, "backup-preference-order", SEV_ERROR,
                    switch,
                    f"statics {_fmt_routes(actual)} do not implement the "
                    f"rightward-first prefix-length rule "
                    f"{_fmt_routes(expected)}",
                ))
    return {
        "ring_switches": ring_switches,
        "static_routes": statics_total,
    }


def _fmt_routes(routes: Dict) -> str:
    return "{" + ", ".join(
        f"{prefix}->{'/'.join(str(h) for h in hops)}"
        for prefix, hops in sorted(
            routes.items(), key=lambda kv: -kv[0].length
        )
    ) + "}"


# ===================================================================
# check 4: wiring conformance
# ===================================================================


def _expected_ring_pairs(members: List[str], across_ports: int) -> Counter:
    """The across-link multiset ``_add_ring`` wires for this member list."""
    n = len(members)
    pairs: Counter = Counter()
    if n < 2:
        return pairs
    for d in range(1, across_ports // 2 + 1):
        if d > 1 and n <= 2 * (d - 1) + 1:
            continue
        if n == 2 and d == 1:
            pairs[link_key(members[0], members[1])] += 2
            continue
        if n == 2 * d:
            for i in range(d):
                pairs[link_key(members[i], members[(i + d) % n])] += 1
            continue
        for i in range(n):
            pairs[link_key(members[i], members[(i + d) % n])] += 1
    return pairs


def _check_wiring(analysis: _Analysis, rec: _Recorder) -> Dict[str, Any]:
    model = analysis.model
    topo = model.topo
    across = [
        l for l in topo.links.values() if l.kind is LinkKind.ACROSS
    ]
    for switch, message in model.config_errors:
        rec.add(Finding(
            WIRING, "backup-config-underivable", SEV_ERROR, switch,
            f"backup routes cannot be derived from the wiring: {message}",
        ))
    ports = topo.params.get("ports")
    if ports is not None:
        for switch in model.switches:
            degree = topo.degree(switch)
            if degree > ports:
                rec.add(Finding(
                    WIRING, "port-budget", SEV_ERROR, switch,
                    f"uses {degree} ports but switches have {ports}",
                ))
    if not across:
        rec.add(Finding(
            WIRING, "no-across-rings", SEV_INFO, topo.name,
            "topology has no across links; nothing to verify against the "
            "paper's ring specification (unrewired baseline)",
        ))
        return {"across_links": 0, "rings": 0}

    across_ports = int(topo.params.get("across_ports", 2))
    actual: Counter = Counter(link_key(l.a, l.b) for l in across)
    expected: Counter = Counter()
    rings = 0
    for kind in RING_KINDS:
        for pod in topo.pods_of_kind(kind):
            members = [n.name for n in topo.pod_members(kind, pod)]
            ring_pairs = _expected_ring_pairs(members, across_ports)
            if not ring_pairs:
                continue
            member_set = set(members)
            # a pod ring only carries an expectation once any of its
            # members participates in across wiring at all
            if not any(
                l for l in across
                if l.a in member_set or l.b in member_set
            ):
                # other pods of this kind ringed -> a real miswiring;
                # kind not ringed anywhere -> plain/unprotected layer
                severity = (
                    SEV_ERROR if kind in model.protected_kinds
                    else SEV_WARNING
                )
                rec.add(Finding(
                    WIRING, "missing-ring", severity,
                    f"{kind.value}-pod-{pod}",
                    f"no across links at all on ring "
                    f"{members} (pod left unrewired)",
                ))
                continue
            rings += 1
            expected.update(ring_pairs)

    for pair in sorted(expected):
        missing = expected[pair] - actual.get(pair, 0)
        for _ in range(max(0, missing)):
            rec.add(Finding(
                WIRING, "missing-ring-link", SEV_ERROR, f"{pair[0]}<->{pair[1]}",
                f"the specified pod ring requires {expected[pair]} across "
                f"link(s) {pair[0]}<->{pair[1]}; found {actual.get(pair, 0)}",
            ))
    for pair in sorted(actual):
        extra = actual[pair] - expected.get(pair, 0)
        for _ in range(max(0, extra)):
            a, b = pair
            detail = "not part of any specified pod ring"
            if topo.node(a).kind is not topo.node(b).kind:
                detail = "joins switches of different layers"
            elif topo.node(a).pod != topo.node(b).pod:
                detail = "crosses pods"
            rec.add(Finding(
                WIRING, "stray-across-link", SEV_ERROR, f"{a}<->{b}",
                f"across link {a}<->{b} is {detail}",
            ))
    return {
        "across_links": len(across),
        "rings": rings,
        "expected_ring_links": sum(expected.values()),
    }


# ===================================================================
# entry point
# ===================================================================


def run_verification(
    topo: Topology,
    max_failures: int = 2,
    samples: int = 50,
    seed: int = 1,
    tie_break: str = "prefix-length",
    shortest_first: bool = False,
    mutate_model: Optional[Callable[[StaticNetworkModel], None]] = None,
) -> VerifyReport:
    """Statically verify one built topology; see the module docstring.

    Deterministic: the same ``(topology, arguments)`` pair always yields
    the identical report (k>2 sampling uses the seeded stream registry).
    ``mutate_model`` is the self-test hook: a callable applied to the
    built :class:`StaticNetworkModel` before any check runs, mirroring
    how ``repro.check`` mutants patch a converged bundle.
    """
    model = StaticNetworkModel(
        topo, tie_break=tie_break, shortest_first=shortest_first
    )
    if mutate_model is not None:
        mutate_model(model)
    analysis = _Analysis(model)
    rec = _Recorder()
    stats: Dict[str, Any] = {
        "switches": len(model.switches),
        "fabric_links": len(model.fabric_links),
        "destinations": len(model.dests),
    }
    _check_baseline(analysis, rec)
    stats[COVERAGE] = _check_coverage(analysis, rec)
    stats[LOOP_FREEDOM] = _check_loop_freedom(
        analysis, rec, max_failures, samples, seed
    )
    stats[PREFIX_SOUNDNESS] = _check_prefix_soundness(analysis, rec)
    stats[WIRING] = _check_wiring(analysis, rec)

    return VerifyReport(
        topology=topo.name,
        family=str(topo.params.get("family", topo.name)),
        ports=topo.params.get("ports"),
        across_ports=topo.params.get("across_ports"),
        max_failures=max_failures,
        tie_break=tie_break,
        findings=rec.findings,
        totals={
            f"{check}/{defect}/{severity}": count
            for (check, defect, severity), count in sorted(rec.totals.items())
        },
        stats=stats,
    )
