"""The invariant catalog and its evaluator.

Six invariants, each with a precise statement of *when* it applies:

``loop-freedom``
    The effective forwarding graph toward any destination prefix never
    contains a cycle the data plane could actually walk.  During
    convergence the ring backup routes may transiently point "the wrong
    way", but the prefix-length fall-through rule guarantees a switch
    only uses a static ring route when every more-preferred ring
    neighbor is detected dead — so a cycle is a violation exactly when
    one of its static edges is *unjustified* under
    :func:`~repro.core.backup_routes.ring_preference_violation` (a
    more-preferred ring neighbor still alive, a hop off the ring, or a
    static on a ring-less switch).  At quiescence the bar is higher: any
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
    ECMP hash over its live next hops — the differential between the
    data plane's own walk and the checkers' shared
    :func:`~repro.net.forwarding.live_match`.
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
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, List, Sequence, Set, TYPE_CHECKING, Tuple

from ..core.backup_routes import ring_neighbors_of, ring_preference_violation
from ..net.ecmp import select_next_hop
from ..net.fib import Fib, FibEntry
from ..net.forwarding import LOOP, Defect, forwarding_graph, live_match, scan
from ..net.packet import PROTO_UDP, Packet
from ..routing.lsdb import Lsa, Lsdb
from ..routing.spf_cache import compute_routes_cached
from ..sim.units import Time
from ..topology.graph import NodeKind, reachable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dataplane.link import RuntimeLink
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
#: forwarding loops reported per destination and check
MAX_LOOPS = 5


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


def _actually_up(link: "RuntimeLink", _near: str, _far: str) -> bool:
    """Ground truth, not detector belief."""
    return link.actually_up


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

    def _loops(self, address: "IPv4Address") -> List[Defect]:
        """The first :data:`MAX_LOOPS` forwarding loops toward
        ``address``, every switch resolving its brute-force chain."""
        edges, delivers = forwarding_graph(
            (switch.name, live_match(
                self._reference_chain(switch.fib, address),
                switch.neighbor_alive,
            ))
            for switch in self.env.network.switches()
        )
        loops = (
            defect for defect in scan(edges.get, sorted(edges), delivers)
            if defect.kind == LOOP
        )
        return list(islice(loops, MAX_LOOPS))

    def _component(
        self, start: str, up: Callable[["RuntimeLink", str, str], bool]
    ) -> Set[str]:
        """Node names reachable from ``start`` over the links ``up(link,
        near end, far end)`` keeps."""
        nodes = self.env.network.nodes
        return reachable(start, lambda name: [
            peer for peer, links in nodes[name].links_by_peer.items()
            if any(up(link, name, peer) for link in links)
        ])

    # ------------------------------------------------------- loop freedom

    def check_loop_freedom_during(self) -> None:
        """Mid-convergence loop check: flags cycles containing an
        unjustified static edge (see class docstring)."""
        self._count(LOOP_FREEDOM)
        topo, network = self.env.topo, self.env.network
        for dest_host, dest_ip in self._dests:
            for loop in self._loops(dest_ip):
                bad = [
                    (node, nh) for node, nh, entry in loop.cycle
                    if entry.source == _STATIC
                    and ring_preference_violation(
                        ring_neighbors_of(topo, node), node, nh,
                        network.switch(node).neighbor_alive,
                    ) is not None
                ]
                if bad:
                    self._record(
                        LOOP_FREEDOM,
                        dest_host,
                        "transient cycle with unjustified static edge(s) "
                        f"{bad} through {list(loop.nodes)}",
                    )

    def check_loop_freedom_quiescent(self) -> None:
        """Post-convergence loop check: flags any cycle from which the
        destination is physically reachable."""
        self._count(LOOP_FREEDOM)
        for dest_host, dest_ip in self._dests:
            for loop in self._loops(dest_ip):
                members = list(loop.nodes)
                if dest_host in self._component(members[0], _actually_up):
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
        if env.dst not in self._component(env.src, _actually_up):
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
                expected_entry, live, expected_depth = live_match(
                    reference, switch.neighbor_alive
                )
                expected_hop = (
                    select_next_hop(live, packet.flow_key, switch.salt)
                    if live else None
                )
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
        switches = {switch.name for switch in env.network.switches()}
        detected = self._component(min(switches), lambda link, a, b: (
            b in switches and link.detected_up_by(a) and link.detected_up_by(b)
        ))
        if detected != switches:
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
