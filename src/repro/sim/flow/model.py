"""The fluid (flow-level) data plane.

The packet backend simulates every probe segment as discrete events —
faithful, but event count scales with traffic volume, which is what caps
it around k=8 fat trees.  This module replaces *only the data traffic*
with the classic fluid approximation: each flow is a piecewise-constant
rate process, recomputed whenever the network changes, and per-flow
throughput/FCT/loss fall out analytically.  Everything the paper is
actually about — failures, detection timers, LSA flooding over real
control packets, SPF throttling, FIB downloads — stays event-driven on
the exact same engine and control-plane code as the packet backend.

How a flow's rate is determined at any instant:

1. its path is resolved through the live FIBs with the same five-tuple
   ECMP hashing the packet data plane uses
   (:meth:`~repro.dataplane.network.Network.trace_route`), honoring
   *detected* state for next-hop choice and *actual* channel state for
   deliverability — so undetected failures black-hole fluid flows
   exactly as they black-hole packets;
2. link capacity is divided max-min fairly among the flows crossing it
   (:func:`repro.sim.flow.fairshare.max_min_rates`), with CBR flows
   capped at their offered rate;
3. the resulting ``(rate, path delay, hops count)`` triple is appended to
   the flow's segment timeline.

Recomputation is **change-driven, not polled**: the model subscribes to
the three places network state can change (FIB generation bumps,
detected-adjacency epoch bumps, actual link up/down) and coalesces all
notifications within one simulated instant into a single recompute
event at :data:`PRIORITY_FLOW` — after control-plane and delivery
events of the same instant, before the checker's probes.

A recompute does work **proportional to what changed** (DESIGN §13),
on solver state that persists between recomputes:

* Listeners record *which node* changed, and a per-flow path cache
  remembers the set of nodes each resolution consulted — ``trace_route``
  appends a node to the path before reading any of its state, so the
  path's node set *is* the consulted-state set, and a cached path stays
  provably valid while none of its nodes change.  A resolution also
  interns the path's links as solver columns, once, so a flow's
  incidence row is built per *path resolution*, not per solve.
* Active flows are kept in sorted-name order (the solver's canonical
  row order), and one pass per recompute integrates each reliable flow
  to ``now`` and derives the demand cap the solver would see.
* If no solver input moved — no live path changed, no cap flipped
  between paced and draining, no solved flow departed — the recompute
  ends there without a solve.  Otherwise it runs **one full solve**
  over the persistent rows; there is no partial re-solve.  (Max-min
  does decompose over connected components of the flow/link sharing
  graph, but a loaded fat tree is one giant component: the
  component-scoped solve this model once had ran on 4 of 880 solves of
  the Fig 6 cell while its bookkeeping cost 17 % of the wall time.)

What the fluid view *cannot* observe (documented in DESIGN §11):
per-packet ECMP spraying (a flow follows one hashed path), transient
micro-loops between asynchronous FIB updates (a looping resolution just
reads as "no path"), and queueing delay (uncongested flows see the pure
store-and-forward latency).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ...net.packet import PROTO_UDP
from ...transport.udp import UdpArrival
from ..engine import Simulator
from ..units import Time, transmission_delay
from .fairshare import FlowId, FlowIncidence, max_min_rates

#: Priority for fluid-model recompute events: after control events
#: (failures, timers, FIB installs at 0) and packet deliveries (10) of
#: the same instant — so a recompute sees the instant's final state —
#: but before the checker's invariant probes at 90.
PRIORITY_FLOW = 50

#: Tolerance for "delivered a full packet's worth of credit" — absorbs
#: float error in rate × interval accumulation, far below one packet.
_CREDIT_EPS = 1e-9

#: A directed link as the solver identifies it: (from node, to node).
_Link = Tuple[str, str]


@dataclass(frozen=True)
class FlowSpec:
    """A constant-bit-rate (or paced-reliable) flow's immutable shape.

    ``packet_bytes`` is the wire size of one application packet and
    ``interval`` the spacing between offers, so the offered rate is
    ``packet_bytes / interval`` bytes/ns.  ``reliable`` selects the
    paced-TCP-like behaviour: offered bytes that cannot be delivered
    accumulate as backlog and drain (elastically, at the fair-share
    rate) once the path heals, instead of being lost.
    """

    name: str
    src: str
    dst: str
    dport: int
    sport: int
    protocol: int = PROTO_UDP
    packet_bytes: int = 1448
    interval: Time = 100_000
    start: Time = 0
    stop: Time = 0
    reliable: bool = False
    #: offered rate in bytes/ns (derived; read on every recompute)
    demand: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "demand", self.packet_bytes / self.interval)


@dataclass(frozen=True)
class FlowSegment:
    """One piece of a flow's piecewise-constant history.

    ``rate`` is the *delivered* rate in bytes/ns (0 while the path is
    dead), ``delay`` the end-to-end latency and ``hops`` the switch
    count of the path in force — both 0 while there is no path.
    """

    start: Time
    rate: float
    delay: Time
    hops: int


@dataclass(frozen=True)
class _ResolvedPath:
    """A cached path resolution and its invalidation key.

    ``visited`` is the (sorted, unique) set of nodes the resolution
    consulted: ``trace_route`` appends each node to the path *before*
    reading its FIB, its detected adjacencies, or the actual state of a
    link it terminates — so while none of these nodes is reported
    changed, re-resolving is guaranteed to reproduce this exact result.
    ``columns`` is the flow's incidence row: the model's solver column
    of each link, in path order (empty while there is no live path).
    """

    links: Optional[Tuple[_Link, ...]]
    delay: Time
    hops: int
    visited: Tuple[str, ...]
    columns: Tuple[int, ...] = ()


@dataclass
class FluidFlow:
    """One flow's runtime state and, after the run, its analytic outputs."""

    spec: FlowSpec
    segments: List[FlowSegment] = field(default_factory=list)
    #: bytes delivered so far (maintained for reliable flows' backlog)
    delivered: float = 0.0
    #: simulated time up to which ``delivered`` is accurate
    advanced_to: Time = 0
    #: offered minus delivered bytes at ``advanced_to`` (reliable flows)
    backlog: float = 0.0
    #: demand cap last handed to the solver: the paced offer rate, or
    #: ``inf`` while a reliable flow drains its backlog elastically
    cap: float = field(init=False)
    active: bool = False
    closed_at: Optional[Time] = None

    def __post_init__(self) -> None:
        self.cap = self.spec.demand

    # ------------------------------------------------------------ queries

    @property
    def sent(self) -> int:
        """Packets offered by the application (same count as the packet
        backend's sender: one per interval tick in [start, stop))."""
        spec = self.spec
        if spec.stop <= spec.start:
            return 0
        span = spec.stop - spec.start
        return (span + spec.interval - 1) // spec.interval

    def offered_bytes(self, at: Time) -> float:
        """Cumulative bytes offered by the application at time ``at``."""
        spec = self.spec
        t = min(max(at, spec.start), spec.stop)
        return spec.demand * (t - spec.start)

    def _segment_spans(self) -> List[Tuple[Time, Time, FlowSegment]]:
        """Segments with explicit [from, to) spans (to = close time for
        the last one)."""
        end = self.closed_at
        if end is None:
            raise RuntimeError(
                f"flow {self.spec.name!r} not finalized; run the simulation "
                "and call FluidTrafficModel.finalize() first"
            )
        spans: List[Tuple[Time, Time, FlowSegment]] = []
        for i, seg in enumerate(self.segments):
            until = self.segments[i + 1].start if i + 1 < len(self.segments) else end
            if until > seg.start:
                spans.append((seg.start, until, seg))
        return spans

    def arrivals(self) -> List[UdpArrival]:
        """Synthesized per-packet arrival log, in the records
        ``UdpSink.arrivals`` holds.

        A packet offered at tick *t* is delivered when the flow has
        accumulated one packet of delivery credit (``rate/demand`` per
        tick), and arrives after the path latency in force at *t*.  An
        uncongested live path delivers every tick; a dead path none —
        with partial rates the thinning is deterministic.
        """
        spec = self.spec
        spans = self._segment_spans()
        out: List[UdpArrival] = []
        credit = 0.0
        cursor = 0
        for seq in range(self.sent):
            t = spec.start + seq * spec.interval
            while cursor < len(spans) and spans[cursor][1] <= t:
                cursor += 1
            if cursor >= len(spans):
                break
            t0, _t1, seg = spans[cursor]
            if t < t0 or seg.rate <= 0.0:
                credit = 0.0
                continue
            credit += min(1.0, seg.rate / spec.demand)
            if credit >= 1.0 - _CREDIT_EPS:
                credit -= 1.0
                out.append(UdpArrival(seq, t, t + seg.delay, seg.hops))
        return out

    def deliveries(self, chunk: Optional[Time] = None) -> List[Tuple[Time, int]]:
        """Synthesized (time, bytes) delivery log — the fluid equivalent
        of ``TcpSinkServer.deliveries``, for throughput binning.

        Bytes are emitted in ``chunk``-sized steps (default: the flow's
        own interval) from the piecewise-linear cumulative delivery
        curve, rounding so the total is conserved.
        """
        step = chunk if chunk is not None else self.spec.interval
        if step <= 0:
            raise ValueError("chunk must be positive")
        spans = self._segment_spans()
        out: List[Tuple[Time, int]] = []
        emitted = 0
        cumulative = 0.0
        for t0, t1, seg in spans:
            if seg.rate <= 0.0:
                continue
            t = t0
            while t < t1:
                t_next = min(t + step, t1)
                cumulative += seg.rate * (t_next - t)
                total = int(cumulative)
                if total > emitted:
                    out.append((t_next + seg.delay, total - emitted))
                    emitted = total
                t = t_next
        return out

    def outage_intervals(self) -> List[Tuple[Time, Time]]:
        """[from, to) spans during which the flow was undeliverable."""
        return [
            (t0, t1) for t0, t1, seg in self._segment_spans() if seg.rate <= 0.0
        ]

    def completion_time(self) -> Optional[Time]:
        """Instant the last offered byte lands at the receiver, or None
        if the flow never delivered everything it offered.

        The fluid FCT: walk the segment timeline integrating delivered
        bytes until they reach the total offer (with the same
        half-packet slack the backlog test uses), then add the path
        latency in force at that instant.  A reliable flow completes
        once its backlog drains; a CBR flow only if it was never starved.
        """
        spec = self.spec
        total = self.offered_bytes(spec.stop)
        if total <= 0.5:
            return None
        target = total - 0.5
        delivered = 0.0
        for t0, t1, seg in self._segment_spans():
            if seg.rate <= 0.0:
                continue
            chunk = seg.rate * (t1 - t0)
            if delivered + chunk >= target:
                dt = (target - delivered) / seg.rate
                return t0 + int(math.ceil(dt)) + seg.delay
            delivered += chunk
        return None

    @property
    def received(self) -> int:
        """Delivered packet count (CBR view)."""
        return len(self.arrivals())


class FluidTrafficModel:
    """Fluid data plane bound to one runtime network.

    Create it right after the network (before traffic starts), add flows,
    run the simulation, then :meth:`finalize` and read each flow's
    analytic outputs.  :func:`repro.experiments.common.build_bundle`
    attaches one automatically when ``params.backend == "flow"``.
    """

    def __init__(self, network: "object") -> None:
        # typed loosely to avoid a dataplane import cycle; the attribute
        # uses below define the real interface (Network)
        self.network = network
        self.sim: Simulator = network.sim  # type: ignore[attr-defined]
        self.params = network.params  # type: ignore[attr-defined]
        #: the fair-share solver — an instance seam so seeded mutants can
        #: corrupt it (mirroring the SPF-engine corruption mutant)
        self.solver: Callable[..., Dict[FlowId, float]] = self._default_solver
        self.flows: Dict[str, FluidFlow] = {}
        self._active: Dict[str, FluidFlow] = {}
        #: active flow names in sorted order — the solver's row order —
        #: and the reliable ones among them
        self._order: List[str] = []
        self._reliable: List[str] = []
        self._pending_at: Optional[Time] = None
        self._drain_handles: Dict[str, object] = {}
        #: reliable flows whose drain prediction may have moved since the
        #: last scheduling pass (rate/offer change); others keep their
        #: scheduled drain — the prediction is linear in both
        self._drain_dirty: Set[str] = set()
        # --- path-resolution cache (invalidated per consulted node) ---
        self._path_cache: Dict[str, _ResolvedPath] = {}
        self._flows_by_node: Dict[str, Set[str]] = {}
        self._changed_nodes: Set[str] = set()
        self._needs_resolve: Set[str] = set()
        # --- persistent solver state ---
        #: solver column of every link a resolved path has crossed, in
        #: first-seen order, and the matching ids / capacities (rebuilt
        #: only when a solve finds new columns)
        self._link_column: Dict[_Link, int] = {}
        self._link_ids: Tuple[_Link, ...] = ()
        self._capacity: List[float] = []
        #: a solved flow left since the last solve
        self._solved_departed = False
        #: the last solve's rates, by flow (what the segments in force
        #: were cut from; the from-scratch oracle test compares these)
        self._last_rates: Dict[FlowId, float] = {}
        #: lifetime counters (surfaced through trial stats)
        self.recomputes = 0
        self.notifications = 0
        self.path_resolutions = 0
        self.path_cache_hits = 0
        self.full_solves = 0
        self._subscribe()

    def _default_solver(
        self,
        incidence: FlowIncidence,
        capacity: Sequence[float],
        demand: Sequence[float],
    ) -> Dict[FlowId, float]:
        """Solve with the default engine (``self.solver`` stays an
        instance attribute so mutants can wrap it).  Goes through the
        module-level name on every call: host-side tracing rebinds it."""
        return max_min_rates(incidence, capacity, demand)

    # -------------------------------------------------------- subscriptions

    def _subscribe(self) -> None:
        """Listen to every place network state can change (see module
        docstring); all hooks funnel into :meth:`_notify`, each recording
        the node(s) whose state moved for path-cache invalidation."""
        network = self.network
        nodes = network.nodes  # type: ignore[attr-defined]
        for name in sorted(nodes):
            node = nodes[name]
            listener = self._node_listener(name)
            node.epoch_listeners.append(listener)
            fib = getattr(node, "fib", None)
            if fib is not None:
                fib.listeners.append(listener)
        for link in network.links:  # type: ignore[attr-defined]
            link.state_listeners.append(
                self._link_listener(link.node_a.name, link.node_b.name)
            )

    def _node_listener(self, name: str) -> Callable[[], None]:
        def on_change() -> None:
            self._changed_nodes.add(name)
            self._notify()

        return on_change

    def _link_listener(self, a: str, b: str) -> Callable[[], None]:
        # an actual-state flip is consulted only by resolutions passing
        # through an endpoint, so both endpoints key the invalidation
        def on_change() -> None:
            self._changed_nodes.add(a)
            self._changed_nodes.add(b)
            self._notify()

        return on_change

    def _notify(self) -> None:
        """A network change happened *now*; coalesce into one recompute."""
        self.notifications += 1
        if not self._active:
            return
        now = self.sim.now
        if self._pending_at == now:
            return
        self._pending_at = now
        self.sim.schedule_at(now, self._recompute_event, priority=PRIORITY_FLOW)

    def _recompute_event(self) -> None:
        self._pending_at = None
        self._recompute()

    # --------------------------------------------------------------- flows

    def add_cbr_flow(
        self,
        name: str,
        src: str,
        dst: str,
        dport: int,
        sport: int,
        protocol: int = PROTO_UDP,
        packet_bytes: int = 1448,
        interval: Time = 100_000,
        start: Time = 0,
        stop: Time = 0,
        reliable: bool = False,
    ) -> FluidFlow:
        """Register a flow; it activates/deactivates by scheduled event."""
        if name in self.flows:
            raise ValueError(f"duplicate flow name {name!r}")
        if stop <= start:
            raise ValueError(f"flow {name!r}: stop must be after start")
        spec = FlowSpec(
            name=name, src=src, dst=dst, dport=dport, sport=sport,
            protocol=protocol, packet_bytes=packet_bytes, interval=interval,
            start=start, stop=stop, reliable=reliable,
        )
        flow = FluidFlow(spec=spec, advanced_to=start)
        self.flows[name] = flow
        self.sim.schedule_at(start, self._activate, flow, priority=PRIORITY_FLOW)
        self.sim.schedule_at(stop, self._on_stop, flow, priority=PRIORITY_FLOW)
        return flow

    def add_paced_flow(
        self,
        name: str,
        src: str,
        dst: str,
        dport: int,
        sport: int,
        protocol: int = PROTO_UDP,
        packet_bytes: int = 1448,
        interval: Time = 100_000,
        start: Time = 0,
        stop: Time = 0,
    ) -> FluidFlow:
        """A reliable (paced-TCP-like) flow: same knobs as
        :meth:`add_cbr_flow` with backlog-and-drain semantics."""
        return self.add_cbr_flow(
            name, src, dst, dport, sport, protocol=protocol,
            packet_bytes=packet_bytes, interval=interval, start=start,
            stop=stop, reliable=True,
        )

    def _activate(self, flow: FluidFlow) -> None:
        flow.active = True
        name = flow.spec.name
        self._active[name] = flow
        insort(self._order, name)
        if flow.spec.reliable:
            insort(self._reliable, name)
        self._needs_resolve.add(name)
        self._recompute()

    def _on_stop(self, flow: FluidFlow) -> None:
        """The application stops offering; a reliable flow with backlog
        stays active until it drains."""
        if not flow.active:
            return
        if flow.spec.reliable:
            self._advance(flow, self.sim.now)
            if flow.backlog > 0.5:
                # the offer rate drops to 0 here, so the drain
                # prediction (if any) must be redone even if the
                # fair-share rate does not move
                self._drain_dirty.add(flow.spec.name)
                self._recompute()
                return
        self._deactivate(flow)

    def _deactivate(self, flow: FluidFlow) -> None:
        if not flow.active:
            return
        self._advance(flow, self.sim.now)
        flow.active = False
        name = flow.spec.name
        del self._active[name]
        del self._order[bisect_left(self._order, name)]
        if flow.spec.reliable:
            del self._reliable[bisect_left(self._reliable, name)]
        self._needs_resolve.discard(name)
        self._drain_dirty.discard(name)
        cached = self._path_cache.pop(name, None)
        if cached is not None:
            self._unregister(name, cached.visited)
            if cached.links is not None:
                self._solved_departed = True
        handle = self._drain_handles.pop(name, None)
        if handle is not None:
            handle.cancel()  # type: ignore[attr-defined]
        self._recompute()

    # ----------------------------------------------------------- recompute

    def _advance(self, flow: FluidFlow, to: Time) -> None:
        """Integrate the flow's delivered bytes up to ``to`` (and a
        reliable flow's backlog there)."""
        elapsed = to - flow.advanced_to
        if elapsed <= 0:
            return
        segments = flow.segments
        if segments:
            flow.delivered += segments[-1].rate * elapsed
        flow.advanced_to = to
        if flow.spec.reliable:
            # delivery can never outrun the offer (drain events split
            # segments at the catch-up instant; this caps float drift)
            offered = flow.offered_bytes(to)
            if flow.delivered > offered:
                flow.delivered = offered
            flow.backlog = offered - flow.delivered

    def _resolve(self, spec: FlowSpec) -> _ResolvedPath:
        """The flow's path right now, with the node set the resolution
        consulted (the cache invalidation key) and its incidence row."""
        path, complete = self.network.trace_route(  # type: ignore[attr-defined]
            spec.src, spec.dst, spec.protocol, spec.sport, spec.dport,
            check_actual=True,
        )
        visited = tuple(sorted(set(path)))
        if not complete:
            return _ResolvedPath(None, 0, 0, visited)
        links = tuple(zip(path, path[1:]))
        tx = transmission_delay(spec.packet_bytes, self.params.link_rate_gbps)
        per_hop = tx + self.params.propagation_delay
        switches = max(0, len(path) - 2)
        delay = len(links) * per_hop + switches * self.params.switch_processing_delay
        column = self._link_column
        columns = tuple(column.setdefault(link, len(column)) for link in links)
        return _ResolvedPath(links, delay, switches, visited, columns)

    def _unregister(self, name: str, visited: Iterable[str]) -> None:
        for node in visited:
            members = self._flows_by_node.get(node)
            if members is not None:
                members.discard(name)
                if not members:
                    del self._flows_by_node[node]

    def _refresh_paths(self, now: Time) -> bool:
        """Re-resolve every flow whose cached path may be stale (it
        consulted a changed node, or it was never resolved); returns
        whether any flow's resolved links actually changed."""
        active = self._active
        resolve = self._needs_resolve
        self._needs_resolve = set()
        if self._changed_nodes:
            by_node = self._flows_by_node
            for node in sorted(self._changed_nodes):
                resolve.update(by_node.get(node, ()))
            self._changed_nodes = set()
        self.path_cache_hits += len(active) - len(resolve)
        links_changed = False
        for name in sorted(resolve):
            flow = active[name]
            old = self._path_cache.get(name)
            resolved = self._resolve(flow.spec)
            self.path_resolutions += 1
            if old is None or old.visited != resolved.visited:
                if old is not None:
                    self._unregister(name, old.visited)
                for node in resolved.visited:
                    self._flows_by_node.setdefault(node, set()).add(name)
            self._path_cache[name] = resolved
            if resolved.links != (old.links if old is not None else None):
                links_changed = True
            if resolved.links is None:
                self._advance(flow, now)
                self._append_segment(flow, now, 0.0, 0, 0)
                if flow.spec.reliable:
                    # a pending drain prediction is void on a dead path
                    self._drain_dirty.add(name)
        return links_changed

    def _recompute(self) -> None:
        """Re-resolve stale paths, bring reliable flows up to ``now``,
        and re-solve fair shares if any solver input moved (module
        docstring / DESIGN §13)."""
        now = self.sim.now
        self.recomputes += 1
        moved = self._refresh_paths(now) or self._solved_departed
        self._solved_departed = False
        # reliable flows' demand caps depend on their backlog at `now`:
        # backlogged (or past their stop) they drain elastically
        active = self._active
        cache = self._path_cache
        for name in self._reliable:
            flow = active[name]
            self._advance(flow, now)
            spec = flow.spec
            cap = (
                math.inf if flow.backlog > 0.5 or now >= spec.stop
                else spec.demand
            )
            if cap != flow.cap:
                flow.cap = cap
                if cache[name].links is not None:
                    moved = True
        if moved:
            self._solve(now)
        self._schedule_drains(now)

    def _solve(self, now: Time) -> None:
        """One full fair-share solve over every active flow with a live
        path, from the rows interned at path resolution, and the
        resulting segments."""
        active = self._active
        cache = self._path_cache
        names = [name for name in self._order if cache[name].links is not None]
        paths = [cache[name] for name in names]
        flows = [active[name] for name in names]
        if len(self._link_ids) != len(self._link_column):
            # a resolution since the last solve crossed a new link
            self._link_ids = tuple(self._link_column)
            bytes_per_ns = self.params.link_rate_gbps / 8.0
            self._capacity = [bytes_per_ns] * len(self._link_ids)
        incidence = FlowIncidence(
            flow_ids=tuple(names),
            link_ids=self._link_ids,
            indptr=(0, *accumulate(len(path.columns) for path in paths)),
            indices=tuple(chain.from_iterable(path.columns for path in paths)),
        )
        rates = self.solver(incidence, self._capacity, [flow.cap for flow in flows])
        self.full_solves += 1
        self._last_rates = rates
        dirty = self._drain_dirty
        for name, flow, path in zip(names, flows, paths):
            if flow.spec.reliable:
                dirty.add(name)  # already at `now`: the recompute's pass
            else:
                self._advance(flow, now)
            self._append_segment(flow, now, rates[name], path.delay, path.hops)

    # -------------------------------------------------------------- output

    def _append_segment(
        self, flow: FluidFlow, now: Time, rate: float, delay: Time, hops: int
    ) -> None:
        segments = flow.segments
        if segments and segments[-1].start == now:
            segments.pop()  # same-instant refinement: last write wins
        if segments:
            last = segments[-1]
            if last.rate == rate and last.delay == delay and last.hops == hops:
                return
        segments.append(FlowSegment(start=now, rate=rate, delay=delay, hops=hops))

    def _schedule_drains(self, now: Time) -> None:
        """For each dirty backlogged reliable flow, schedule the instant
        its backlog empties — the rate changes there (drain -> paced)
        without any network event to trigger a recompute.  Flows whose
        rate and offer rate did not move keep their scheduled drain: the
        prediction is linear, so it stays correct.  (Every dirty flow is
        reliable and was advanced to ``now`` by the recompute.)"""
        if not self._drain_dirty:
            return
        dirty = self._drain_dirty
        self._drain_dirty = set()
        for name in sorted(dirty):
            flow = self._active[name]
            spec = flow.spec
            old = self._drain_handles.pop(name, None)
            if old is not None:
                old.cancel()  # type: ignore[attr-defined]
            if not flow.segments:
                continue
            rate = flow.segments[-1].rate
            backlog = flow.backlog
            if rate <= 0.0 or backlog <= 0.5:
                continue
            offer_rate = spec.demand if now < spec.stop else 0.0
            if rate <= offer_rate:
                continue
            drain_ns = int(backlog / (rate - offer_rate)) + 1
            if now < spec.stop and now + drain_ns > spec.stop:
                # the offer stops before the drain completes; the stop
                # event re-enters here with the post-stop offer rate
                continue
            self._drain_handles[name] = self.sim.schedule(
                drain_ns, self._on_drained, flow, priority=PRIORITY_FLOW
            )

    def _on_drained(self, flow: FluidFlow) -> None:
        self._drain_handles.pop(flow.spec.name, None)
        if not flow.active:
            return
        if self.sim.now >= flow.spec.stop:
            self._deactivate(flow)
        else:
            self._recompute()

    # ------------------------------------------------------------ epilogue

    def finalize(self) -> None:
        """Close every flow's timeline at the current instant; flows'
        analytic outputs (arrivals, deliveries) become readable."""
        now = self.sim.now
        for name in sorted(self.flows):
            flow = self.flows[name]
            self._advance(flow, now)
            if flow.closed_at is None or flow.closed_at < now:
                flow.closed_at = now

    def stats(self) -> Dict[str, int]:
        """JSON-safe model counters for trial stats / flight recorder.
        ``incremental_solves`` is kept for readers of earlier artifacts:
        every solve is a full one (module docstring)."""
        return {
            "flows": len(self.flows),
            "recomputes": self.recomputes,
            "notifications": self.notifications,
            "path_resolutions": self.path_resolutions,
            "path_cache_hits": self.path_cache_hits,
            "full_solves": self.full_solves,
            "incremental_solves": 0,
        }
