"""The invariant catalog and its evaluator.

Six invariants, each with a precise statement of *when* it applies:

``loop-freedom``
    The effective forwarding graph toward any destination prefix never
    contains a cycle the data plane could actually walk.  During
    convergence the ring backup routes may transiently point "the wrong
    way", but the prefix-length fall-through rule guarantees a switch
    only uses a static ring route when every more-preferred ring
    neighbor is detected dead — so a cycle is a violation exactly when
    one of its static edges is *unjustified* (a more-preferred ring
    neighbor is still alive).  At quiescence the bar is higher: any
    cycle from which the destination is physically reachable is a
    violation, because converged routed state must win over statics.
``frr-window``
    Inside the fast-reroute window (after detection, before the first
    SPF install) the data plane must agree with the Section II-C
    analytical classifier: conditions 1-3 reroute on a simple path that
    is exactly ``extra_hops`` longer; condition 4 ping-pongs (the paper
    accepts the loss).
``blackhole-bound``
    If a physical path between the probe endpoints survives, end-to-end
    forwarding must work again within :func:`~repro.check.config.quiescence_bound`
    of a topology event (checked only when no other event lands inside
    the window).
``fib-consistency``
    ``Fib.matches`` enumerates exactly the entries containing the
    address in strictly longest-prefix-first order, and the switch's
    indexed resolver picks the first live match with the deterministic
    ECMP hash over its live next hops.
``convergence-agreement``
    At quiescence every link-state router's installed routes equal the
    routes a centralized global-SPF oracle computes from an idealized
    LSDB built out of ground-truth detected adjacency — the differential
    check between the distributed protocol and
    :func:`repro.routing.spf.compute_routes`.  Skipped when the
    detected switch graph is partitioned (SPF has no defined answer
    across a cut).
``sim-sanity``
    The engine itself: events fire at exactly their scheduled time, the
    clock never regresses, and every packet handed to a channel is
    accounted for (delivered + queue-dropped + down-dropped = sent).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, TYPE_CHECKING, Tuple

from ..core.backup_routes import ring_neighbors_of
from ..net.ecmp import select_next_hop
from ..net.fib import LOCAL, Fib, FibEntry
from ..net.packet import PROTO_UDP, Packet
from ..routing.lsdb import Lsa, Lsdb
from ..routing.spf_cache import compute_routes_cached
from ..sim.units import Time
from ..topology.graph import NodeKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..failures.scenarios import ConditionScenario
    from ..net.ip import IPv4Address
    from .execute import CheckEnv

LOOP_FREEDOM = "loop-freedom"
FRR_WINDOW = "frr-window"
BLACKHOLE_BOUND = "blackhole-bound"
FIB_CONSISTENCY = "fib-consistency"
CONVERGENCE_AGREEMENT = "convergence-agreement"
SIM_SANITY = "sim-sanity"

ALL_INVARIANTS = (
    LOOP_FREEDOM,
    FRR_WINDOW,
    BLACKHOLE_BOUND,
    FIB_CONSISTENCY,
    CONVERGENCE_AGREEMENT,
    SIM_SANITY,
)

#: source tag of the ring backup routes
_STATIC = "static"


@dataclass(frozen=True)
class Violation:
    """One invariant violation at one instant."""

    invariant: str
    at: Time
    subject: str
    detail: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "invariant": self.invariant,
            "at": self.at,
            "subject": self.subject,
            "detail": self.detail,
        }


def canonical_violations(violations: Sequence[Violation]) -> str:
    """Canonical JSON of a violation list — the byte-identity currency of
    replay bundles."""
    return json.dumps(
        [v.to_dict() for v in violations],
        sort_keys=True,
        separators=(",", ":"),
    )


#: forwarding graph: switch name -> [(next hop, entry used)]
ForwardingEdges = Dict[str, List[Tuple[str, FibEntry]]]


def find_cycles(
    edges: ForwardingEdges, limit: int = 5
) -> List[List[Tuple[str, str, FibEntry]]]:
    """Cycles in a forwarding graph, as lists of (node, next hop, entry).

    Iterative colored DFS from every node in sorted order; deterministic
    and bounded (at most ``limit`` cycles reported).
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[str, int] = {}
    cycles: List[List[Tuple[str, str, FibEntry]]] = []

    def entry_for(node: str, successor: str) -> FibEntry:
        for next_hop, entry in edges[node]:
            if next_hop == successor:
                return entry
        raise KeyError((node, successor))

    for root in sorted(edges):
        if color.get(root, WHITE) != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        stack = [iter(edges[root])]
        while stack:
            advanced = False
            for next_hop, _entry in stack[-1]:
                state = color.get(next_hop, WHITE)
                if next_hop not in edges:
                    # terminal (host-facing or routeless) node
                    color[next_hop] = BLACK
                    continue
                if state == GRAY:
                    start = path.index(next_hop)
                    members = path[start:]
                    cycle = [
                        (node, members[(i + 1) % len(members)],
                         entry_for(node, members[(i + 1) % len(members)]))
                        for i, node in enumerate(members)
                    ]
                    cycles.append(cycle)
                    if len(cycles) >= limit:
                        return cycles
                elif state == WHITE:
                    color[next_hop] = GRAY
                    path.append(next_hop)
                    stack.append(iter(edges[next_hop]))
                    advanced = True
                    break
            if not advanced:
                color[path.pop()] = BLACK
                stack.pop()
    return cycles


class InvariantSuite:
    """Evaluates the catalog against one live check environment."""

    def __init__(self, env: "CheckEnv") -> None:
        self.env = env
        self.violations: List[Violation] = []
        self.checks_run: Dict[str, int] = {}
        topo = env.topo
        self._dests: List[Tuple[str, object]] = []
        for tor in topo.nodes_of_kind(NodeKind.TOR, NodeKind.LEAF):
            hosts = topo.host_of_tor(tor.name)
            if hosts:
                self._dests.append((hosts[0].name, hosts[0].ip))

    # -------------------------------------------------------------- helpers

    def _record(self, invariant: str, subject: str, detail: str) -> None:
        self.violations.append(
            Violation(invariant, self.env.sim.now, subject, detail)
        )

    def _count(self, invariant: str) -> None:
        self.checks_run[invariant] = self.checks_run.get(invariant, 0) + 1

    def _reference_chain(
        self, fib: Fib, address: "IPv4Address"
    ) -> List[FibEntry]:
        """Brute-force longest-prefix match chain, bypassing the (possibly
        instance-patched) trie walk."""
        matching = [e for e in fib.entries() if e.prefix.contains(address)]
        matching.sort(key=lambda e: -e.prefix.length)
        return matching

    def _forwarding_edges(self, address: "IPv4Address") -> ForwardingEdges:
        """The effective forwarding graph toward ``address``: for every
        switch, the live next hops of its first live match (the entries
        ECMP could spray over)."""
        edges: ForwardingEdges = {}
        for switch in self.env.network.switches():
            for entry in self._reference_chain(switch.fib, address):
                live = [
                    nh for nh in entry.next_hops
                    if nh == LOCAL or switch.neighbor_alive(nh)
                ]
                if live:
                    edges[switch.name] = [
                        (nh, entry) for nh in live if nh != LOCAL
                    ]
                    break
        return edges

    def _static_edge_unjustified(
        self, switch_name: str, next_hop: str, entry: FibEntry
    ) -> bool:
        """A static ring edge is unjustified when a more-preferred ring
        neighbor (earlier in the rightward-first order) is still alive —
        the prefix-length fall-through rule would never take it."""
        if entry.source != _STATIC:
            return False
        ring = ring_neighbors_of(self.env.topo, switch_name)
        if ring is None:
            return False
        node = self.env.network.switch(switch_name)
        for preferred in ring.ordered:
            if preferred == next_hop:
                return False
            if node.neighbor_alive(preferred):
                return True
        return False

    def _physical_component(self, start: str) -> Set[str]:
        """Node names reachable from ``start`` over links that are
        *actually* up (ground truth, not detector belief)."""
        network = self.env.network
        adjacency: Dict[str, List[str]] = {}
        for link in network.links:
            if not link.actually_up:
                continue
            a, b = link.spec.key
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for peer in adjacency.get(node, ()):
                if peer not in seen:
                    seen.add(peer)
                    queue.append(peer)
        return seen

    def _detected_switch_graph_connected(self) -> bool:
        """Whether the switch-to-switch graph is connected over links both
        endpoints currently detect as up."""
        network = self.env.network
        switches = [s.name for s in network.switches()]
        switch_set = set(switches)
        adjacency: Dict[str, List[str]] = {name: [] for name in switches}
        for link in network.links:
            a, b = link.spec.key
            if a in switch_set and b in switch_set:
                if link.detected_up_by(a) and link.detected_up_by(b):
                    adjacency[a].append(b)
                    adjacency[b].append(a)
        seen = {switches[0]}
        queue = deque([switches[0]])
        while queue:
            for peer in adjacency[queue.popleft()]:
                if peer not in seen:
                    seen.add(peer)
                    queue.append(peer)
        return len(seen) == len(switches)

    # ------------------------------------------------------- loop freedom

    def check_loop_freedom_during(self) -> None:
        """Mid-convergence loop check: flags cycles containing an
        unjustified static edge (see class docstring)."""
        self._count(LOOP_FREEDOM)
        for dest_host, dest_ip in self._dests:
            edges = self._forwarding_edges(dest_ip)
            for cycle in find_cycles(edges):
                bad = [
                    (node, nh) for node, nh, entry in cycle
                    if self._static_edge_unjustified(node, nh, entry)
                ]
                if bad:
                    self._record(
                        LOOP_FREEDOM,
                        dest_host,
                        "transient cycle with unjustified static edge(s) "
                        f"{bad} through {[node for node, _, _ in cycle]}",
                    )

    def check_loop_freedom_quiescent(self) -> None:
        """Post-convergence loop check: flags any cycle from which the
        destination is physically reachable."""
        self._count(LOOP_FREEDOM)
        for dest_host, dest_ip in self._dests:
            edges = self._forwarding_edges(dest_ip)
            for cycle in find_cycles(edges):
                members = [node for node, _, _ in cycle]
                if dest_host in self._physical_component(members[0]):
                    self._record(
                        LOOP_FREEDOM,
                        dest_host,
                        f"converged forwarding cycle through {members} while "
                        f"{dest_host} is physically reachable",
                    )

    # --------------------------------------------------------- frr window

    def check_frr_window(
        self, scenario: "ConditionScenario", path_before: List[str]
    ) -> None:
        """Differential check of the Section II-C classifier against the
        live data plane inside the fast-reroute window."""
        from ..core.failure_analysis import FailureCondition, analyze_scenario

        self._count(FRR_WINDOW)
        env = self.env
        analysis = analyze_scenario(
            env.topo,
            scenario.sx,
            scenario.dest_tor,
            frozenset(scenario.failed),
        )
        subject = f"{scenario.label}:{env.src}->{env.dst}"
        if analysis.condition is not scenario.expected_condition:
            self._record(
                FRR_WINDOW,
                subject,
                f"classifier says {analysis.condition.name}, scenario "
                f"expects {scenario.expected_condition.name}",
            )
            return
        path, completed = env.network.trace_route(
            env.src, env.dst, PROTO_UDP, env.probe_sport, env.probe_dport
        )
        if analysis.condition is FailureCondition.NO_DOWNWARD_FAILURE:
            if not completed or path != path_before:
                self._record(
                    FRR_WINDOW, subject,
                    f"untouched flow deviated: {path} (was {path_before})",
                )
        elif analysis.fast_reroute_succeeds:
            if not completed:
                self._record(
                    FRR_WINDOW, subject,
                    f"{analysis.condition.name} should fast-reroute but the "
                    f"probe died at {path[-1] if path else '?'}",
                )
                return
            if len(set(path)) != len(path):
                self._record(
                    FRR_WINDOW, subject, f"rerouted path revisits a node: {path}"
                )
            # the scenario's expected_extra_hops counts *every* detour hop
            # (including core-ring ones); the classifier's extra_hops only
            # counts the destination-pod relay
            expected_len = len(path_before) + scenario.expected_extra_hops
            if len(path) != expected_len:
                self._record(
                    FRR_WINDOW, subject,
                    f"rerouted path has {len(path)} hops, scenario "
                    f"predicts {expected_len}",
                )
            if analysis.egress is not None and analysis.egress not in path:
                self._record(
                    FRR_WINDOW, subject,
                    f"classifier egress {analysis.egress} not on the "
                    f"rerouted path {path}",
                )
        else:
            if completed:
                self._record(
                    FRR_WINDOW, subject,
                    f"{analysis.condition.name} predicts loss but the probe "
                    f"was delivered via {path}",
                )

    # ------------------------------------------------------ blackhole bound

    def check_blackhole(self, event_time: Time) -> None:
        """Quiescence-bound check: the probe pair must forward end to end
        if a physical path survives."""
        self._count(BLACKHOLE_BOUND)
        env = self.env
        if env.dst not in self._physical_component(env.src):
            return
        path, completed = env.network.trace_route(
            env.src, env.dst, PROTO_UDP, env.probe_sport, env.probe_dport,
            check_actual=True,
        )
        if not completed:
            self._record(
                BLACKHOLE_BOUND,
                f"{env.src}->{env.dst}",
                f"black hole outlived the quiescence bound of the event at "
                f"{event_time} ns (probe died after {path})",
            )

    # ------------------------------------------------------ fib consistency

    def check_fib_consistency(self) -> None:
        """LPM ordering, trie/entries agreement, and resolver/ECMP
        consistency on every switch for every probe destination."""
        self._count(FIB_CONSISTENCY)
        env = self.env
        for switch in env.network.switches():
            fib = switch.fib
            entries = list(fib.entries())
            if len(fib) != len(entries):
                self._record(
                    FIB_CONSISTENCY, switch.name,
                    f"len(fib)={len(fib)} but entries() yields {len(entries)}",
                )
            for dest_host, dest_ip in self._dests:
                reference = self._reference_chain(fib, dest_ip)
                chain = list(fib.matches(dest_ip))
                if chain != reference:
                    self._record(
                        FIB_CONSISTENCY, switch.name,
                        f"matches({dest_ip}) returned "
                        f"{[str(e.prefix) for e in chain]}, longest-prefix "
                        f"order is {[str(e.prefix) for e in reference]}",
                    )
                    break
                packet = Packet(
                    src=env.network.host(env.src).ip, dst=dest_ip,
                    protocol=PROTO_UDP, size_bytes=64,
                    sport=env.probe_sport, dport=env.probe_dport,
                )
                expected_entry = expected_hop = None
                expected_depth = 0
                for depth, entry in enumerate(reference):
                    live = [
                        nh for nh in entry.next_hops
                        if nh == LOCAL or switch.neighbor_alive(nh)
                    ]
                    if live:
                        expected_entry = entry
                        expected_hop = select_next_hop(
                            live, packet.flow_key, switch.salt
                        )
                        expected_depth = depth
                        break
                got_entry, got_hop, got_depth = switch._resolve_indexed(packet)
                if (got_entry, got_hop) != (expected_entry, expected_hop) or (
                    expected_entry is not None and got_depth != expected_depth
                ):
                    self._record(
                        FIB_CONSISTENCY, switch.name,
                        f"resolver chose ({got_entry}, {got_hop!r}, depth "
                        f"{got_depth}) for {dest_host}; reference resolution "
                        f"is ({expected_entry}, {expected_hop!r}, depth "
                        f"{expected_depth})",
                    )
                    break

    # ------------------------------------------------ convergence agreement

    def check_convergence_agreement(self) -> None:
        """Differential: installed link-state routes vs. a global-SPF
        oracle fed an idealized LSDB of detected adjacency."""
        self._count(CONVERGENCE_AGREEMENT)
        env = self.env
        if not self._detected_switch_graph_connected():
            return
        oracle = Lsdb()
        for switch in env.network.switches():
            protocol = env.protocols[switch.name]
            neighbors = tuple(
                sorted(
                    peer for peer in protocol.protocol_neighbors
                    if switch.neighbor_alive(peer)
                )
            )
            oracle.insert(
                Lsa(
                    origin=switch.name,
                    seq=1,
                    neighbors=neighbors,
                    prefixes=protocol.advertised,
                )
            )
        for switch in env.network.switches():
            protocol = env.protocols[switch.name]
            # memoized: the oracle LSDB is rebuilt per check but its
            # fingerprint repeats between topology events, so quiescent
            # stretches of a fuzz trial are one SPF per switch total
            expected = compute_routes_cached(switch.name, oracle)
            actual = protocol.route_table
            if actual == expected:
                continue
            diff = []
            for prefix in sorted(set(expected) | set(actual)):
                want = expected.get(prefix)
                have = actual.get(prefix)
                if want != have:
                    diff.append(f"{prefix}: installed {have}, oracle {want}")
                if len(diff) >= 4:
                    break
            self._record(
                CONVERGENCE_AGREEMENT, switch.name,
                "installed routes disagree with the global SPF oracle: "
                + "; ".join(diff),
            )

    # ------------------------------------------------------------ sim sanity

    def check_sim_sanity(self) -> None:
        """Engine audit: timing discipline plus packet conservation on
        every channel."""
        self._count(SIM_SANITY)
        env = self.env
        for scheduled, fired, label in env.sim.timing_violations:
            self._record(
                SIM_SANITY, "engine",
                f"{label}: scheduled at {scheduled} ns, fired at {fired} ns",
            )
        for link in env.network.links:
            for channel in (link.channel_ab, link.channel_ba):
                stats = channel.stats
                accounted = (
                    stats.delivered + stats.dropped_queue + stats.dropped_down
                )
                if stats.sent != accounted:
                    self._record(
                        SIM_SANITY,
                        f"{channel.src.name}->{channel.dst.name}",
                        f"packet conservation broken: sent {stats.sent}, "
                        f"accounted {accounted} (delivered {stats.delivered}, "
                        f"queue-dropped {stats.dropped_queue}, down-dropped "
                        f"{stats.dropped_down})",
                    )

    # --------------------------------------------------------- quiescent set

    def run_quiescent_checks(self) -> None:
        self.check_loop_freedom_quiescent()
        self.check_fib_consistency()
        self.check_convergence_agreement()
        self.check_sim_sanity()
