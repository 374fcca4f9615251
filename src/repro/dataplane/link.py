"""Runtime links: store-and-forward channels plus failure detection.

A :class:`RuntimeLink` wraps one topology link with

* two independent :class:`Channel` directions (FIFO output queue, serialization
  at the link rate, fixed propagation delay, drop-tail), and
* a **detection state machine per endpoint**: when the link actually fails,
  packets die immediately, but each endpoint only *learns* of the failure
  ``detection_delay`` later (BFD-scale, 60 ms by default).  The window in
  between is the black hole the paper measures.  A flap shorter than the
  detection delay is never reported — exactly like a real BFD session that
  never misses enough hellos.

The channel uses an *epoch* counter so that packets serialized before a
failure are dropped at delivery time without having to track per-packet
event handles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, TYPE_CHECKING

from ..net.packet import Packet
from ..obs.trace import EV_LINK_DETECTED, EV_LINK_FAIL, EV_LINK_RESTORE
from ..sim.engine import Simulator, Timer
from ..sim.units import Time, transmission_delay
from ..topology.graph import Link as LinkSpec
from .params import NetworkParams

#: Buckets for the output-queue occupancy histogram (packets, at enqueue).
QUEUE_DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import NetworkNode


@dataclass(slots=True)
class LinkStats:
    """Counters per link direction (slotted: one per channel, 20 k of
    them on a 24-port fabric)."""

    sent: int = 0
    delivered: int = 0
    dropped_queue: int = 0
    dropped_down: int = 0
    #: total serialization time consumed (ns) — busy_ns / elapsed = utilization
    busy_ns: int = 0
    #: high-watermark of the output queue (packets)
    max_queue_depth: int = 0

    def utilization(self, window_ns: int) -> float:
        """Fraction of ``window_ns`` the transmitter was busy."""
        if window_ns <= 0:
            raise ValueError("window must be positive")
        return min(1.0, self.busy_ns / window_ns)


class Channel:
    """One direction of a link: ``src`` node -> ``dst`` node."""

    def __init__(
        self,
        sim: Simulator,
        params: NetworkParams,
        src: "NetworkNode",
        dst: "NetworkNode",
    ) -> None:
        self._sim = sim
        self._obs = sim.obs
        self.src = src
        self.dst = dst
        # read once: ``NetworkParams`` is frozen and a node never changes
        # its name, so ``enqueue``/``_deliver`` touch this object only
        self._src_name = src.name
        self._queue_capacity = params.queue_capacity
        self._propagation_delay = params.propagation_delay
        self._link_rate_gbps = params.link_rate_gbps
        self.up = True
        self.epoch = 0
        self._next_free: Time = 0
        self._queued = 0
        self.stats = LinkStats()

    def enqueue(self, packet: Packet) -> bool:
        """Offer a packet to the channel; returns False when dropped.

        Enqueueing onto an actually-down channel silently loses the packet —
        the *sender does not know* unless its detection state says so, which
        is exactly how undetected failures black-hole traffic.
        """
        stats = self.stats
        stats.sent += 1
        if not self.up:
            stats.dropped_down += 1
            obs = self._obs
            if obs.enabled:
                obs.metrics.counter("link.dropped", reason="down").inc()
            return False
        queued = self._queued
        if queued >= self._queue_capacity:
            stats.dropped_queue += 1
            obs = self._obs
            if obs.enabled:
                obs.metrics.counter("link.dropped", reason="queue_full").inc()
            return False
        sim = self._sim
        tx = transmission_delay(packet.size_bytes, self._link_rate_gbps)
        finish = self._next_free
        now = sim.now
        if finish < now:
            finish = now
        finish += tx
        self._next_free = finish
        queued += 1
        self._queued = queued
        stats.busy_ns += tx
        if queued > stats.max_queue_depth:
            stats.max_queue_depth = queued
        obs = self._obs
        if obs.enabled:
            obs.metrics.histogram(
                "link.queue_depth", buckets=QUEUE_DEPTH_BUCKETS
            ).observe(queued)
        # neither event is ever cancelled (a failure invalidates in-flight
        # packets through the epoch), so no handle is taken
        sim.call_at(finish, self._serialized)
        sim.call_at(
            finish + self._propagation_delay, self._deliver, packet, self.epoch
        )
        return True

    def _serialized(self) -> None:
        self._queued -= 1

    def _deliver(self, packet: Packet, epoch: int) -> None:
        if epoch != self.epoch or not self.up:
            self.stats.dropped_down += 1
            obs = self._obs
            if obs.enabled:
                obs.metrics.counter("link.dropped", reason="down_in_flight").inc()
            return
        self.stats.delivered += 1
        self.dst.receive(packet, self._src_name)

    def set_up(self, up: bool) -> None:
        """Change the actual channel state; a transition to down (or a
        down->up bounce) invalidates in-flight packets via the epoch."""
        if up != self.up:
            self.epoch += 1
            self.up = up
            if up:
                self._next_free = self._sim.now


class _EndpointDetector:
    """Failure/recovery detector for one endpoint of a link.

    Tracks the *detected* state with a delay behind the observed state;
    flaps shorter than the detection delay are never reported (like a BFD
    session that never misses enough hellos).
    """

    def __init__(
        self,
        sim: Simulator,
        node: "NetworkNode",
        notify: Callable[["NetworkNode", bool], None],
        down_delay: Time,
        up_delay: Time,
    ) -> None:
        self.node = node
        self.detected_up = True
        self._notify = notify
        self._down_delay = down_delay
        self._up_delay = up_delay
        self._timer = Timer(sim, self._fire)
        self._pending: Optional[bool] = None  # state to report when timer fires

    def observe(self, up: bool) -> None:
        """Feed the currently-observable state; idempotent."""
        if up:
            self._link_came_up()
        else:
            self._link_went_down()

    def _link_went_down(self) -> None:
        if self.detected_up:
            if self._pending is not False:
                self._pending = False
                self._timer.start(self._down_delay)
        elif self._pending is True:
            # recovery was being detected but the outage resumed
            self._timer.cancel()
            self._pending = None

    def _link_came_up(self) -> None:
        if self.detected_up:
            # the outage was shorter than the detection delay: never report it
            if self._pending is False:
                self._timer.cancel()
                self._pending = None
        elif self._pending is not True:
            self._pending = True
            self._timer.start(self._up_delay)

    def _fire(self) -> None:
        assert self._pending is not None
        self.detected_up = self._pending
        self._pending = None
        self._notify(self.node, self.detected_up)

    def force(self, up: bool) -> None:
        """Set the detected state synchronously (test/analysis hook).

        Cancels any in-flight detection and invalidates the node's
        liveness caches directly — *without* the routing-agent
        notification — so frozen-control-plane experiments can flip
        beliefs while the data plane stays cache-coherent.
        """
        self._timer.cancel()
        self._pending = None
        if self.detected_up != up:
            self.detected_up = up
            self.node._bump_adjacency_epoch()


class RuntimeLink:
    """A bidirectional link instance bound to two runtime nodes.

    Failures may be bidirectional (the paper's evaluation) or
    **unidirectional** (the paper's stated future work): one direction's
    channel dies while the other keeps delivering.  What each endpoint can
    *detect* depends on ``params.detection_mode``:

    * ``"bfd"`` (default) — the session needs both directions, so either
      direction failing is detected by **both** endpoints;
    * ``"interface"`` — an endpoint only notices when its **incoming**
      direction dies (loss-of-signal); the sender into a unidirectionally
      dead link keeps transmitting into the void.
    """

    def __init__(
        self,
        sim: Simulator,
        params: NetworkParams,
        spec: LinkSpec,
        node_a: "NetworkNode",
        node_b: "NetworkNode",
    ) -> None:
        self.spec = spec
        self.params = params
        self._sim = sim
        self.node_a = node_a
        self.node_b = node_b
        self.channel_ab = Channel(sim, params, node_a, node_b)
        self.channel_ba = Channel(sim, params, node_b, node_a)
        #: observers of *actual* channel-state changes (the fluid
        #: backend's recompute trigger — deliverability changes at the
        #: failure instant, before any endpoint detects it)
        self.state_listeners: List[Callable[[], None]] = []
        self._detectors = {
            node_a.name: _EndpointDetector(
                sim, node_a, self._on_detected, params.detection_delay,
                params.up_detection_delay,
            ),
            node_b.name: _EndpointDetector(
                sim, node_b, self._on_detected, params.detection_delay,
                params.up_detection_delay,
            ),
        }

    @property
    def actually_up(self) -> bool:
        """True while both directions work."""
        return self.channel_ab.up and self.channel_ba.up

    @property
    def name(self) -> str:
        return str(self.spec)

    def channel_from(self, node_name: str) -> Channel:
        """The outgoing channel as seen from ``node_name``."""
        if node_name == self.node_a.name:
            return self.channel_ab
        if node_name == self.node_b.name:
            return self.channel_ba
        raise ValueError(f"{node_name} is not an endpoint of {self.name}")

    def other(self, node_name: str) -> "NetworkNode":
        if node_name == self.node_a.name:
            return self.node_b
        if node_name == self.node_b.name:
            return self.node_a
        raise ValueError(f"{node_name} is not an endpoint of {self.name}")

    def detected_up_by(self, node_name: str) -> bool:
        """Whether ``node_name`` currently believes this link is up."""
        return self._detectors[node_name].detected_up

    def force_detection(self, up: bool) -> None:
        """Force both endpoints' *detected* state synchronously.

        For frozen-dataplane tests and offline analysis that flip
        beliefs without running simulator events: detection timers are
        cancelled, liveness caches are invalidated, and routing agents
        are **not** notified (the control plane stays frozen).
        """
        for detector in self._detectors.values():
            detector.force(up)

    def fail(self) -> None:
        """Take the link down in both directions (the paper's failures)."""
        self.channel_ab.set_up(False)
        self.channel_ba.set_up(False)
        obs = self._sim.obs
        obs.metrics.counter("link.failures").inc()
        obs.trace.emit(self._sim.now, EV_LINK_FAIL, self.name)
        self._sync_detectors()
        self._notify_state()

    def restore(self) -> None:
        """Bring both directions back up."""
        self.channel_ab.set_up(True)
        self.channel_ba.set_up(True)
        obs = self._sim.obs
        obs.metrics.counter("link.restores").inc()
        obs.trace.emit(self._sim.now, EV_LINK_RESTORE, self.name)
        self._sync_detectors()
        self._notify_state()

    def fail_direction(self, from_name: str) -> None:
        """Kill only the ``from_name`` -> peer direction (unidirectional)."""
        self.channel_from(from_name).set_up(False)
        obs = self._sim.obs
        obs.metrics.counter("link.failures").inc()
        obs.trace.emit(
            self._sim.now, EV_LINK_FAIL, self.name, direction=from_name
        )
        self._sync_detectors()
        self._notify_state()

    def restore_direction(self, from_name: str) -> None:
        """Revive only the ``from_name`` -> peer direction."""
        self.channel_from(from_name).set_up(True)
        obs = self._sim.obs
        obs.metrics.counter("link.restores").inc()
        obs.trace.emit(
            self._sim.now, EV_LINK_RESTORE, self.name, direction=from_name
        )
        self._sync_detectors()
        self._notify_state()

    def _notify_state(self) -> None:
        for listener in self.state_listeners:
            listener()

    def _observable_up(self, node_name: str) -> bool:
        """What ``node_name``'s detection mechanism can currently see."""
        incoming = (
            self.channel_ba if node_name == self.node_a.name else self.channel_ab
        )
        if self.params.detection_mode == "interface":
            return incoming.up
        # bfd: the session needs both directions
        return self.channel_ab.up and self.channel_ba.up

    def _sync_detectors(self) -> None:
        for name, detector in self._detectors.items():
            detector.observe(self._observable_up(name))

    def _on_detected(self, node: "NetworkNode", up: bool) -> None:
        obs = self._sim.obs
        obs.metrics.counter(
            "link.detections", state="up" if up else "down"
        ).inc()
        obs.trace.emit(
            self._sim.now,
            EV_LINK_DETECTED,
            node.name,
            link=self.name,
            peer=self.other(node.name).name,
            up=up,
        )
        node.on_adjacency_change(self, up)
