"""The distributed link-state routing protocol (OSPF stand-in).

This is the reproduction's substitute for Quagga OSPF.  It reproduces the
exact sources of delay the paper decomposes (§I, §III):

1. **failure detection** (~60 ms) — owned by the data plane's detectors;
   this agent only hears about it via :meth:`on_neighbor_change`;
2. **LSA origination and flooding** — real control packets over the live
   links, a per-hop processing delay, sequence-numbered freshness, two-way
   check in SPF;
3. **throttled SPF** — Quagga-style ``timers throttle spf 200 1000 10000``:
   the first computation after a quiet period waits ``spf_initial_delay``;
   consecutive computations are separated by a hold time that doubles under
   churn up to ``spf_hold_max`` — the mechanism behind the paper's observed
   ~9 s timers during failure storms (§IV-B);
4. **FIB update delay** (~10 ms) — routes computed by SPF only take effect
   in the data plane after ``fib_update_delay``.

F²Tree's point is precisely that its static backup routes bypass steps
2 - 4 entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # runtime import would be circular
    from ..dataplane.network import Network

from ..net.fib import FibDelta
from ..net.ip import Prefix
from ..net.packet import Packet
from ..obs.registry import Counter
from ..obs.trace import (
    EV_FIB_INSTALL,
    EV_LSA_ACCEPT,
    EV_LSA_ORIGINATE,
    EV_SPF_RUN,
    EV_SPF_SCHEDULE,
)
from ..sim.engine import Simulator, Timer
from ..sim.units import MILLISECOND, Time
from ..dataplane.node import SwitchNode
from ..dataplane.params import NetworkParams
from .lsdb import Fingerprint, Lsa, Lsdb
from .spf import RouteTable
from .spf_cache import SpfCacheStats, SpfEngine, classify_transition

#: FIB entry source tag for routes installed by this protocol.
SOURCE = "linkstate"

#: bound on the per-prefix change list attached to ``fib.install`` trace
#: events (feeds the per-prefix ``fib_delta`` spans); anything beyond is
#: summarised in ``changes_truncated``
MAX_TRACED_FIB_CHANGES = 16


@dataclass
class ProtocolStats:
    """Observability counters (used heavily by tests and EXPERIMENTS.md)."""

    lsas_originated: int = 0
    lsas_flooded: int = 0
    lsas_accepted: int = 0
    spf_runs: int = 0
    fib_installs: int = 0
    #: hold values at each SPF completion — shows the exponential backoff
    hold_history: List[Time] = field(default_factory=list)

    # read only by ``perfbench/layers.py:181-183``, off every agent (every
    # SPF run is a full run); they go with the re-pin of ROADMAP item 1(ii)
    spf_incremental_runs = 0
    spf_nodes_touched = 0

    @property
    def spf_full_runs(self) -> int:
        return self.spf_runs


class LinkStateProtocol:
    """One router's protocol instance (a `RoutingAgent` for its switch)."""

    def __init__(
        self,
        sim: Simulator,
        switch: SwitchNode,
        params: NetworkParams,
        switch_neighbors: Sequence[str],
        advertised: Sequence[Prefix] = (),
    ) -> None:
        self.sim = sim
        self.switch = switch
        self.params = params
        self._obs = sim.obs
        self.name = switch.name
        #: neighbors participating in the protocol (hosts never do)
        self._protocol_neighbors: Set[str] = set(switch_neighbors)
        #: :meth:`_live_protocol_neighbors` at ``_live_neighbors_epoch``
        self._live_neighbors: Tuple[str, ...] = ()
        self._live_neighbors_epoch = -1
        self._advertised: Tuple[Prefix, ...] = tuple(advertised)
        self.lsdb = Lsdb()
        self.stats = ProtocolStats()
        #: logical (deterministic, per-instance) SPF cache accounting
        self.spf_cache_stats = SpfCacheStats()
        #: per-instance route computer over the shared (origin,
        #: fingerprint) memo; warm start swaps in the batch oracle's
        self._spf_engine = SpfEngine(self.name)
        self._seq = 0
        # SPF throttle state
        self._spf_timer = Timer(sim, self._run_spf)
        self._hold_current: Time = params.spf_hold
        self._hold_expiry: Time = 0
        #: the fingerprint the last SPF run saw (None: never ran)
        self._fingerprint: Optional[Fingerprint] = None
        # FIB state; the download is the SPF engine's own immutable table
        self._table: RouteTable = {}
        self._pending_routes: Optional[RouteTable] = None
        self._install_timer = Timer(sim, self._install_pending)
        self._last_spf_at: Optional[Time] = None
        switch.routing_agent = self

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Originate the initial LSA and begin flooding."""
        self._originate()

    def _live_protocol_neighbors(self) -> Tuple[str, ...]:
        """Protocol neighbors the switch detects alive, in sorted order.

        Kept until the switch's adjacency epoch moves: every flood asks,
        and detected liveness only changes with an epoch bump.
        """
        epoch = self.switch.adjacency_epoch
        if epoch != self._live_neighbors_epoch:
            self._live_neighbors = self._sorted_live_neighbors()
            self._live_neighbors_epoch = epoch
        return self._live_neighbors

    def _sorted_live_neighbors(self) -> Tuple[str, ...]:
        """Uncached :meth:`_live_protocol_neighbors`."""
        return tuple(sorted(
            peer
            for peer in self._protocol_neighbors
            if self.switch.neighbor_alive(peer)
        ))

    def _originate(self) -> None:
        self._seq += 1
        lsa = Lsa(
            origin=self.name,
            seq=self._seq,
            neighbors=self._live_protocol_neighbors(),
            prefixes=self._advertised,
        )
        self.stats.lsas_originated += 1
        obs = self._obs
        obs.metrics.counter("lsa.originated").inc()
        obs.trace.emit(
            self.sim.now, EV_LSA_ORIGINATE, self.name,
            seq=self._seq, neighbors=len(lsa.neighbors),
        )
        self.lsdb.insert(lsa)
        self._flood([lsa], exclude=None)
        self._schedule_spf()

    # ------------------------------------------------------------- flooding

    def _flood(self, lsas: List[Lsa], exclude: Optional[str]) -> None:
        payload = tuple(lsas)
        size_bytes = self.params.lsa_size_bytes
        peers_sent = 0
        for peer in self._live_protocol_neighbors():
            if peer == exclude:
                continue
            peers_sent += 1
            self.switch.send_control(peer, payload, size_bytes)
        if peers_sent:
            flooded = peers_sent * len(payload)
            self.stats.lsas_flooded += flooded
            self._flooded_counter.inc(flooded)

    @cached_property
    def _flooded_counter(self) -> Counter:
        """Flooding is the bulk of a trial's events, so its two registry
        counters are resolved once per instance — on first use, not in
        ``__init__``: a metrics snapshot must not gain zero-valued series."""
        return self._obs.metrics.counter("lsa.flooded")

    @cached_property
    def _accepted_counter(self) -> Counter:
        return self._obs.metrics.counter("lsa.accepted")

    def on_control_packet(self, packet: Packet, sender: str) -> None:
        """Receive a batch of flooded LSAs (after a processing delay)."""
        sim = self.sim
        sim.call_at(
            sim.now + self.params.lsa_processing_delay,
            self._process_lsas, packet.payload, sender,
        )

    def _process_lsas(self, lsas: Tuple[Lsa, ...], sender: str) -> None:
        accepted: List[Lsa] = []
        for lsa in lsas:
            if self.lsdb.insert(lsa):
                accepted.append(lsa)
        if not accepted:
            return
        self.stats.lsas_accepted += len(accepted)
        self._accepted_counter.inc(len(accepted))
        obs = self._obs
        if obs.enabled:
            obs.trace.emit(
                self.sim.now, EV_LSA_ACCEPT, self.name,
                count=len(accepted), sender=sender,
            )
        self._flood(accepted, exclude=sender)
        self._schedule_spf()

    # ----------------------------------------------------------- detection

    def on_neighbor_change(self, peer: str, up: bool) -> None:
        """Adjacency change reported by the switch's failure detection."""
        if peer not in self._protocol_neighbors:
            return  # a host link; not part of the routing protocol
        if up:
            # database synchronisation with the revived neighbor, so that a
            # healed partition learns the other side's state
            everything = list(self.lsdb.all())
            if everything:
                self.switch.send_control(
                    peer,
                    payload=tuple(everything),
                    size_bytes=self.params.lsa_size_bytes * max(1, len(everything)),
                )
        self._originate()

    # -------------------------------------------------------- SPF throttle

    def _schedule_spf(self) -> None:
        """Quagga-style SPF throttling (see module docstring)."""
        if self._spf_timer.armed:
            return  # the scheduled run will see this change
        now = self.sim.now
        if now >= self._hold_expiry:
            # quiet period: reset the backoff, apply the initial delay
            self._hold_current = self.params.spf_hold
            delay = self.params.spf_initial_delay
        else:
            delay = self._hold_expiry - now
            self._hold_current = min(
                2 * self._hold_current, self.params.spf_hold_max
            )
        self._obs.trace.emit(
            self.sim.now, EV_SPF_SCHEDULE, self.name,
            delay=delay, hold=self._hold_current,
        )
        self._spf_timer.start(delay)

    def _run_spf(self) -> None:
        self.stats.spf_runs += 1
        self.stats.hold_history.append(self._hold_current)
        obs = self._obs
        obs.metrics.counter("spf.runs").inc()
        obs.metrics.histogram("spf.hold_ms").observe(
            self._hold_current / MILLISECOND
        )
        self._last_spf_at = self.sim.now
        self._hold_expiry = self.sim.now + self._hold_current
        # memoized: seq-only LSA refreshes under a failure storm hit the
        # shared cache (the fingerprint ignores sequence numbers); the
        # per-instance stats count *logical* reuse — noted here, outside
        # the cache, so it is deterministic regardless of how warm the
        # shared cache happens to be (or whether it has been swapped out)
        fingerprint = self.lsdb.fingerprint()
        cached = self.spf_cache_stats.note((self.name, fingerprint))
        # the transition is classified here, once, whatever engine then
        # computes the table: a pure function of this instance's
        # fingerprint sequence, so the traced delta is too
        previous, self._fingerprint = self._fingerprint, fingerprint
        delta = classify_transition(previous, fingerprint).kind
        self._pending_routes = self._spf_engine.compute(self.lsdb, delta)
        obs.metrics.counter(
            "spf.cache.hits" if cached else "spf.cache.misses"
        ).inc()
        obs.trace.emit(
            self.sim.now, EV_SPF_RUN, self.name,
            hold=self._hold_current, cached=cached, delta=delta,
        )
        self._install_timer.start(self.params.fib_update_delay)

    def _install_pending(self) -> None:
        """FIB download: the delta between the old download and the new
        table (:meth:`~repro.net.fib.FibDelta.between`) as one
        :meth:`~repro.net.fib.Fib.apply_delta` batch — applied even when
        empty (an engine handing back the table already downloaded), so
        every download counts once."""
        routes = self._pending_routes
        if routes is None:
            return
        self._pending_routes = None
        self.stats.fib_installs += 1
        obs = self._obs
        previous, self._table = self._table, routes
        delta = FibDelta.between(previous, routes, SOURCE)
        self.switch.fib.apply_delta(delta)
        withdrawn = len(delta.withdrawals)
        installed = len(delta.installs)
        # per-prefix change names feed the trace's fib_delta spans; only
        # collected while tracing is on (the list build is pure overhead
        # otherwise)
        changes: Optional[List[str]] = None
        if obs.enabled:
            changes = [f"-{prefix}" for prefix in delta.withdrawals]
            changes.extend(
                f"~{e.prefix}" if e.prefix in previous else f"+{e.prefix}"
                for e in delta.installs
            )
        obs.metrics.counter("fib.installs").inc()
        if self._last_spf_at is not None:
            obs.metrics.histogram("fib.install_latency_ms").observe(
                (self.sim.now - self._last_spf_at) / MILLISECOND
            )
        detail: Dict[str, object] = {}
        if changes is not None:
            detail["changes"] = changes[:MAX_TRACED_FIB_CHANGES]
            detail["changes_truncated"] = max(
                0, len(changes) - MAX_TRACED_FIB_CHANGES
            )
        obs.trace.emit(
            self.sim.now, EV_FIB_INSTALL, self.name,
            installed=installed, withdrawn=withdrawn,
            changed=installed + withdrawn, **detail,
        )

    # ------------------------------------------------------------- queries

    @property
    def route_table(self) -> RouteTable:
        """The table last downloaded to the FIB: the SPF engine's own
        object, shared with whoever else holds it — read-only."""
        return self._table

    @property
    def protocol_neighbors(self) -> frozenset:
        """Switch peers this instance speaks the protocol with (hosts
        excluded); alive or not — liveness is the caller's concern."""
        return frozenset(self._protocol_neighbors)

    @property
    def advertised(self) -> Tuple[Prefix, ...]:
        """The prefixes this router originates into the LSDB."""
        return self._advertised


#: one switch of a control plane: the switch, the peers it speaks the
#: protocol with (hosts never do) and the prefixes it originates
RosterEntry = Tuple[SwitchNode, List[str], List[Prefix]]


def switch_roster(network: "Network", loopbacks: bool) -> List[RosterEntry]:
    """Every switch of ``network`` as every control plane deploys it.

    ToRs/leaves advertise their host subnet (the paper's "each ToR will
    redistribute the subnet address containing hosts below into OSPF");
    with ``loopbacks`` every switch also advertises its /32 loopback.
    """
    roster: List[RosterEntry] = []
    for switch in network.switches():
        subnet = switch.spec.subnet
        advertised: List[Prefix] = [] if subnet is None else [subnet]
        if loopbacks:
            advertised.append(Prefix(switch.ip, 32))
        peers = [
            peer for peer in switch.links_by_peer
            if isinstance(network.nodes[peer], SwitchNode)
        ]
        roster.append((switch, peers, advertised))
    return roster


def linkstate_instances(
    network: "Network", loopbacks: bool
) -> Dict[str, LinkStateProtocol]:
    """One unstarted protocol instance per switch: the construction
    :func:`deploy_linkstate` and the warm start share."""
    return {
        switch.name: LinkStateProtocol(
            network.sim, switch, network.params, peers, advertised
        )
        for switch, peers, advertised in switch_roster(network, loopbacks)
    }


def deploy_linkstate(network: "Network") -> Dict[str, LinkStateProtocol]:
    """Install a protocol instance on every switch of a network (host
    subnets and /32 loopbacks advertised) and start them all.

    Instances start in construction order, which is fine because
    flooding is event-driven.
    """
    instances = linkstate_instances(network, loopbacks=True)
    for protocol in instances.values():
        protocol.start()
    return instances
