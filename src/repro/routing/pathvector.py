"""Path-vector routing — the BGP stand-in (§V, "Other Distributed Routing
Schemes").

Production DCNs also run BGP; the paper notes it "suffers from the slow
failure recovery problem" for the same underlying reason (control-plane
communication and computation, no local backup), aggravated by MRAI-timed
path hunting [13].  This module implements a compact path-vector protocol
so the reproduction can demonstrate F²Tree's claim that its scheme is
routing-protocol-agnostic:

* per-prefix AS-path-style announcements (the "AS" is the switch name),
  loop-rejected on receipt;
* best-path selection by shortest path, with ECMP over equal-length best
  paths from different neighbors;
* per-neighbor **MRAI** (minimum route advertisement interval): the first
  update after a quiet period leaves immediately, subsequent ones batch
  until the timer expires — the classic source of multi-round convergence
  under withdrawals (path hunting);
* withdrawals, session teardown on detected neighbor loss, full-table
  resync on session re-establishment;
* **valley-free export policy** (Gao-Rexford with "below = customer", the
  standard DCN BGP design): a route learned from an upper-layer neighbor
  is only exported to lower-layer neighbors, so a ToR never offers
  transit between two aggregation switches.  Without this, ToRs would
  re-advertise valley paths and mask the downward-redundancy gap the
  paper is about;
* the same FIB-update delay as the link-state protocol.

F²Tree's static backups sit *under* whatever this protocol installs, so a
downward failure is again bridged locally while path hunting plays out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # runtime import would be circular
    from ..dataplane.network import Network

from ..dataplane.node import SwitchNode
from ..dataplane.params import NetworkParams
from ..net.fib import FibEntry
from ..net.ip import Prefix
from ..net.packet import Packet
from ..sim.engine import Simulator, Timer
from ..sim.units import Time, microseconds, milliseconds

#: FIB entry source tag.
SOURCE = "pathvector"

#: An announcement carries the path from the advertiser back to the
#: origin; None means withdrawal.
PathAttr = Optional[Tuple[str, ...]]


@dataclass(frozen=True)
class PathVectorParams:
    """Protocol timing knobs."""

    #: minimum interval between successive advertisements to one neighbor
    mrai: Time = milliseconds(100)
    #: per-update processing delay at the receiver
    processing_delay: Time = microseconds(500)
    #: wire size of one update packet
    update_size_bytes: int = 160


@dataclass
class PathVectorStats:
    updates_sent: int = 0
    updates_received: int = 0
    withdrawals_sent: int = 0
    best_path_changes: int = 0
    fib_installs: int = 0


class PathVectorProtocol:
    """One switch's path-vector speaker (a `RoutingAgent`)."""

    def __init__(
        self,
        sim: Simulator,
        switch: SwitchNode,
        params: NetworkParams,
        switch_neighbors: Sequence[str],
        advertised: Sequence[Prefix] = (),
        protocol_params: Optional[PathVectorParams] = None,
        own_rank: int = 0,
        neighbor_ranks: Optional[Dict[str, int]] = None,
    ) -> None:
        self.sim = sim
        self.switch = switch
        self.params = params
        self.proto = protocol_params or PathVectorParams()
        self.name = switch.name
        self.stats = PathVectorStats()
        #: hierarchy ranks for the valley-free export rule (ToR=1, agg=2,
        #: core=3...); rank 0 everywhere disables the policy
        self.own_rank = own_rank
        self._neighbor_ranks: Dict[str, int] = dict(neighbor_ranks or {})
        self._neighbors: Set[str] = set(switch_neighbors)
        self._sessions_up: Set[str] = set(switch_neighbors)
        self._originated: Tuple[Prefix, ...] = tuple(advertised)
        #: adj-RIB-in: peer -> prefix -> path (from peer to origin)
        self._rib_in: Dict[str, Dict[Prefix, Tuple[str, ...]]] = {
            peer: {} for peer in switch_neighbors
        }
        #: current best: prefix -> (length, sorted tuple of next-hop peers)
        self._best: Dict[Prefix, Tuple[int, Tuple[str, ...]]] = {}
        #: what we last advertised to each peer: prefix -> path
        self._advertised_to: Dict[str, Dict[Prefix, Tuple[str, ...]]] = {
            peer: {} for peer in switch_neighbors
        }
        #: pending (MRAI-gated) updates per peer
        self._pending: Dict[str, Dict[Prefix, PathAttr]] = {
            peer: {} for peer in switch_neighbors
        }
        self._mrai_timers: Dict[str, Timer] = {
            peer: Timer(sim, lambda p=peer: self._mrai_expired(p))
            for peer in switch_neighbors
        }
        self._mrai_open: Dict[str, bool] = {peer: True for peer in switch_neighbors}
        self._installed: Dict[Prefix, FibEntry] = {}
        self._install_timer = Timer(sim, self._install_best)
        switch.routing_agent = self

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Announce originated prefixes to every live session."""
        changed = []
        for prefix in self._originated:
            self._best[prefix] = (0, ())
            changed.append(prefix)
        self._propagate(changed)

    # ------------------------------------------------------------- receive

    def on_control_packet(self, packet: Packet, sender: str) -> None:
        sim = self.sim
        sim.call_at(
            sim.now + self.proto.processing_delay,
            self._process_updates, packet.payload, sender,
        )

    def _process_updates(
        self, updates: Tuple[Tuple[Prefix, PathAttr], ...], sender: str
    ) -> None:
        if sender not in self._neighbors or sender not in self._sessions_up:
            return
        self.stats.updates_received += len(updates)
        rib = self._rib_in[sender]
        affected: List[Prefix] = []
        for prefix, path in updates:
            if path is None:
                if prefix in rib:
                    del rib[prefix]
                    affected.append(prefix)
                continue
            if self.name in path:
                # loop: our own name already on the path; treat as absent
                if prefix in rib:
                    del rib[prefix]
                    affected.append(prefix)
                continue
            rib[prefix] = path
            affected.append(prefix)
        self._reselect(affected)

    # ----------------------------------------------------------- selection

    def _candidates(self, prefix: Prefix) -> List[Tuple[int, str, Tuple[str, ...]]]:
        found = []
        for peer in sorted(self._sessions_up):
            path = self._rib_in[peer].get(prefix)
            if path is not None:
                found.append((len(path), peer, path))
        return found

    def _reselect(self, prefixes: Sequence[Prefix]) -> None:
        changed: List[Prefix] = []
        for prefix in dict.fromkeys(prefixes):
            if prefix in self._originated:
                continue  # our own prefixes never change
            candidates = self._candidates(prefix)
            if not candidates:
                new_best: Optional[Tuple[int, Tuple[str, ...]]] = None
            else:
                best_len = min(c[0] for c in candidates)
                peers = tuple(
                    sorted(peer for length, peer, _ in candidates if length == best_len)
                )
                new_best = (best_len, peers)
            old = self._best.get(prefix)
            if new_best != old:
                self.stats.best_path_changes += 1
                if new_best is None:
                    self._best.pop(prefix, None)
                else:
                    self._best[prefix] = new_best
                changed.append(prefix)
        if changed:
            self._install_timer.start(self.params.fib_update_delay)
            self._propagate(changed)

    def _install_best(self) -> None:
        fib = self.switch.fib
        self.stats.fib_installs += 1
        wanted: Dict[Prefix, Tuple[str, ...]] = {
            prefix: peers
            for prefix, (length, peers) in self._best.items()
            if prefix not in self._originated and peers
        }
        for prefix in list(self._installed):
            if prefix not in wanted:
                fib.withdraw(prefix)
                del self._installed[prefix]
        for prefix, peers in wanted.items():
            current = self._installed.get(prefix)
            if current is not None and current.next_hops == peers:
                continue
            entry = FibEntry(prefix, peers, source=SOURCE)
            fib.install(entry)
            self._installed[prefix] = entry

    # ---------------------------------------------------------- propagate

    def _exportable(self, learned_from: str, to_peer: str) -> bool:
        """Valley-free rule: routes learned from below go everywhere;
        routes learned from above/peers only go below."""
        if self.own_rank == 0:
            return True
        learned_rank = self._neighbor_ranks.get(learned_from, 0)
        to_rank = self._neighbor_ranks.get(to_peer, 0)
        return learned_rank < self.own_rank or to_rank < self.own_rank

    def _advertisement_for(self, prefix: Prefix, peer: str) -> PathAttr:
        """What (if anything) we may advertise for ``prefix`` to ``peer``."""
        best = self._best.get(prefix)
        if best is None:
            return None
        if prefix in self._originated:
            return (self.name,)
        length, peers = best
        if not peers:
            return None
        # advertise the (deterministic) first best path, prepending self
        first_peer = peers[0]
        if not self._exportable(first_peer, peer):
            return None
        return (self.name,) + self._rib_in[first_peer][prefix]

    def _propagate(self, prefixes: Sequence[Prefix]) -> None:
        for peer in sorted(self._sessions_up):
            pending = self._pending[peer]
            for prefix in prefixes:
                pending[prefix] = self._advertisement_for(prefix, peer)
            self._maybe_send(peer)

    def _maybe_send(self, peer: str) -> None:
        if not self._pending[peer]:
            return
        if self._mrai_open.get(peer, False):
            self._send_pending(peer)
        # else: the armed MRAI timer will flush on expiry

    def _send_pending(self, peer: str) -> None:
        pending = self._pending[peer]
        updates: List[Tuple[Prefix, PathAttr]] = []
        sent_state = self._advertised_to[peer]
        for prefix, path in pending.items():
            if path is None:
                if prefix in sent_state:
                    del sent_state[prefix]
                    updates.append((prefix, None))
                    self.stats.withdrawals_sent += 1
            else:
                if sent_state.get(prefix) != path:
                    sent_state[prefix] = path
                    updates.append((prefix, path))
        pending.clear()
        if not updates:
            return
        self.stats.updates_sent += len(updates)
        self.switch.send_control(
            peer, payload=tuple(updates), size_bytes=self.proto.update_size_bytes
        )
        self._mrai_open[peer] = False
        self._mrai_timers[peer].start(self.proto.mrai)

    def _mrai_expired(self, peer: str) -> None:
        self._mrai_open[peer] = True
        self._maybe_send(peer)

    # ----------------------------------------------------------- sessions

    def on_neighbor_change(self, peer: str, up: bool) -> None:
        if peer not in self._neighbors:
            return
        if up:
            self._sessions_up.add(peer)
            self._advertised_to[peer] = {}
            self._pending[peer] = {
                prefix: self._advertisement_for(prefix, peer)
                for prefix in list(self._best)
            }
            self._mrai_open[peer] = True
            self._maybe_send(peer)
            # routes through the revived peer become candidates again as
            # soon as it re-advertises; nothing to reselect yet
            return
        self._sessions_up.discard(peer)
        lost = list(self._rib_in[peer])
        self._rib_in[peer] = {}
        self._reselect(lost)

    @property
    def routes(self) -> Dict[Prefix, FibEntry]:
        return dict(self._installed)


def deploy_pathvector(
    network: "Network",
    protocol_params: Optional[PathVectorParams] = None,
    advertise_loopbacks: bool = True,
) -> Dict[str, PathVectorProtocol]:
    """Install a path-vector speaker on every switch (mirror of
    :func:`repro.routing.linkstate.deploy_linkstate`)."""
    from ..dataplane.network import Network  # local import to avoid a cycle
    from ..topology.graph import NodeKind

    ranks = {
        NodeKind.TOR: 1,
        NodeKind.LEAF: 1,
        NodeKind.AGG: 2,
        NodeKind.SPINE: 2,
        NodeKind.INTERMEDIATE: 3,
        NodeKind.CORE: 3,
    }

    assert isinstance(network, Network)
    instances: Dict[str, PathVectorProtocol] = {}
    for switch in network.switches():
        advertised: List[Prefix] = []
        if switch.spec.subnet is not None:
            advertised.append(switch.spec.subnet)
        if advertise_loopbacks:
            advertised.append(Prefix(switch.ip, 32))
        switch_neighbors = [
            peer
            for peer in switch.links_by_peer
            if isinstance(network.nodes[peer], SwitchNode)
        ]
        neighbor_ranks = {
            peer: ranks.get(network.switch(peer).spec.kind, 0)
            for peer in switch_neighbors
        }
        instances[switch.name] = PathVectorProtocol(
            network.sim,
            switch,
            network.params,
            switch_neighbors=switch_neighbors,
            advertised=advertised,
            protocol_params=protocol_params,
            own_rank=ranks.get(switch.spec.kind, 0),
            neighbor_ranks=neighbor_ranks,
        )
    for protocol in instances.values():
        protocol.start()
    return instances
