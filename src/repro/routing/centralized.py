"""Centralized routing (§V, "Centralized Routing DCNs").

The paper argues F²Tree also helps SDN-style fabrics (PortLand [26]): when
a failure happens, the detecting switch must report it to a controller,
the controller recomputes routes from global state, and new tables are
pushed to every affected switch — a round trip plus computation that grows
with scale, during which packets black-hole.  F²Tree's pre-installed
backup routes cover exactly that window.

This module implements that control plane:

* :class:`CentralizedController` — holds the global link-state view,
  recomputes all switches' routes on a change (with a batching delay and a
  computation cost), and pushes table updates;
* :class:`CentralizedAgent` — the per-switch resident: reports adjacency
  changes upward, installs pushed tables after the FIB download delay.

Control messages use an out-of-band management channel with configurable
one-way latencies (the paper's "one message from the switch ... and one
message from the controller to each affected switch"); in-band signalling
would only make the plain fabric look worse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # runtime import would be circular
    from ..dataplane.network import Network

from ..dataplane.node import SwitchNode
from ..dataplane.params import NetworkParams
from ..net.fib import FibDelta, FibEntry
from ..net.ip import Prefix
from ..net.packet import Packet
from ..sim.engine import Simulator, Timer
from ..sim.units import Time, milliseconds
from .lsdb import Lsa, Lsdb
from .spf import RouteTable
from .spf_cache import compute_routes_cached

#: FIB entry source tag for controller-installed routes.
SOURCE = "centralized"


@dataclass(frozen=True)
class ControllerParams:
    """Timing of the centralized control loop."""

    #: one-way switch -> controller report latency (management network)
    report_latency: Time = milliseconds(2)
    #: one-way controller -> switch table-push latency
    push_latency: Time = milliseconds(2)
    #: batching window: reports arriving within it share one recomputation
    batching_delay: Time = milliseconds(10)
    #: global route recomputation cost
    computation_delay: Time = milliseconds(20)


@dataclass
class ControllerStats:
    """Observability counters."""

    reports_received: int = 0
    recomputations: int = 0
    pushes_sent: int = 0


class CentralizedController:
    """The global route computer."""

    def __init__(
        self,
        sim: Simulator,
        params: NetworkParams,
        control: Optional[ControllerParams] = None,
    ) -> None:
        self.sim = sim
        self.params = params
        self.control = control or ControllerParams()
        self.stats = ControllerStats()
        self._agents: Dict[str, "CentralizedAgent"] = {}
        #: the controller's believed adjacency: switch -> set of neighbors
        self._adjacency: Dict[str, Set[str]] = {}
        #: prefixes attached to each switch
        self._attached: Dict[str, Tuple[Prefix, ...]] = {}
        self._recompute_timer = Timer(sim, self._recompute)
        self._dirty = False

    # ------------------------------------------------------------ topology

    def register(self, agent: "CentralizedAgent", neighbors: Sequence[str],
                 attached: Sequence[Prefix]) -> None:
        self._agents[agent.name] = agent
        self._adjacency[agent.name] = set(neighbors)
        self._attached[agent.name] = tuple(attached)

    def bootstrap(self) -> None:
        """Compute and push the initial tables for every switch."""
        self._push_all(self._compute_tables())

    # ------------------------------------------------------------- reports

    def receive_report(self, reporter: str, peer: str, up: bool) -> None:
        """A failure/recovery report has arrived (already delayed by the
        management-network latency)."""
        self.stats.reports_received += 1
        if up:
            self._adjacency[reporter].add(peer)
        else:
            self._adjacency[reporter].discard(peer)
        self._dirty = True
        if not self._recompute_timer.armed:
            self._recompute_timer.start(self.control.batching_delay)

    # ----------------------------------------------------------- computing

    def _global_lsdb(self) -> Lsdb:
        db = Lsdb()
        for name, neighbors in self._adjacency.items():
            db.insert(
                Lsa(
                    origin=name,
                    seq=1,
                    neighbors=tuple(sorted(neighbors)),
                    prefixes=self._attached.get(name, ()),
                )
            )
        return db

    def _compute_tables(self) -> Dict[str, RouteTable]:
        db = self._global_lsdb()
        # memoized: repeated recomputations over an unchanged detected
        # graph (report churn that cancels out) reuse the shared cache
        return {name: compute_routes_cached(name, db) for name in self._agents}

    def _recompute(self) -> None:
        if not self._dirty:
            return
        self._dirty = False
        self.stats.recomputations += 1
        # tables become available after the computation cost, then pushed
        self.sim.schedule(
            self.control.computation_delay, self._push_computed
        )

    def _push_computed(self) -> None:
        self._push_all(self._compute_tables())
        # reports that arrived mid-computation trigger another round
        if self._dirty and not self._recompute_timer.armed:
            self._recompute_timer.start(self.control.batching_delay)

    def _push_all(self, tables: Dict[str, RouteTable]) -> None:
        for name, table in tables.items():
            agent = self._agents[name]
            if agent.would_change(table):
                self.stats.pushes_sent += 1
                self.sim.call_at(
                    self.sim.now + self.control.push_latency,
                    agent.receive_table, table,
                )


class CentralizedAgent:
    """Per-switch resident of the centralized control plane."""

    def __init__(
        self,
        sim: Simulator,
        switch: SwitchNode,
        params: NetworkParams,
        controller: CentralizedController,
        switch_neighbors: Sequence[str],
        advertised: Sequence[Prefix] = (),
    ) -> None:
        self.sim = sim
        self.switch = switch
        self.params = params
        self.name = switch.name
        self.controller = controller
        self._protocol_neighbors = set(switch_neighbors)
        self._installed: Dict[Prefix, FibEntry] = {}
        self._pending: Optional[RouteTable] = None
        self._install_timer = Timer(sim, self._install_pending)
        self.reports_sent = 0
        switch.routing_agent = self
        controller.register(self, switch_neighbors, advertised)

    # ------------------------------------------------------- RoutingAgent

    def on_neighbor_change(self, peer: str, up: bool) -> None:
        if peer not in self._protocol_neighbors:
            return
        self.reports_sent += 1
        self.sim.call_at(
            self.sim.now + self.controller.control.report_latency,
            self.controller.receive_report,
            self.name,
            peer,
            up,
        )

    def on_control_packet(self, packet: Packet, sender: str) -> None:
        """No in-band control traffic in this scheme."""

    # ------------------------------------------------------------- tables

    def would_change(self, table: RouteTable) -> bool:
        """Whether installing ``table`` would modify this switch's FIB."""
        if set(table) != set(self._installed):
            return True
        return any(
            self._installed[prefix].next_hops != next_hops
            for prefix, next_hops in table.items()
        )

    def receive_table(self, table: RouteTable) -> None:
        self._pending = table
        self._install_timer.start(self.params.fib_update_delay)

    def _install_pending(self) -> None:
        # computed delta against the previous push, applied as one batch
        # (one generation bump) in sorted-prefix order — same contract as
        # the link-state protocol's FIB download
        table = self._pending
        if table is None:
            return
        self._pending = None
        fib = self.switch.fib
        withdrawals = tuple(sorted(
            prefix for prefix in self._installed if prefix not in table
        ))
        installs: List[FibEntry] = []
        for prefix in sorted(table):
            current = self._installed.get(prefix)
            if current is not None and current.next_hops == table[prefix]:
                continue
            installs.append(FibEntry(prefix, table[prefix], source=SOURCE))
        fib.apply_delta(FibDelta(tuple(installs), withdrawals))
        for prefix in withdrawals:
            del self._installed[prefix]
        for entry in installs:
            self._installed[entry.prefix] = entry

    @property
    def routes(self) -> Dict[Prefix, FibEntry]:
        return dict(self._installed)


def deploy_centralized(
    network: "Network",
    control: Optional[ControllerParams] = None,
    advertise_loopbacks: bool = True,
) -> Tuple[CentralizedController, Dict[str, CentralizedAgent]]:
    """Install a controller and one agent per switch; bootstrap routes.

    Mirrors :func:`repro.routing.linkstate.deploy_linkstate` so experiment
    harnesses can swap control planes.
    """
    from ..dataplane.network import Network  # local import to avoid a cycle

    assert isinstance(network, Network)
    controller = CentralizedController(network.sim, network.params, control)
    agents: Dict[str, CentralizedAgent] = {}
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
        agents[switch.name] = CentralizedAgent(
            network.sim,
            switch,
            network.params,
            controller,
            switch_neighbors=switch_neighbors,
            advertised=advertised,
        )
    controller.bootstrap()
    return controller, agents
