"""UDP applications: the constant-bit-rate flow of §III.

The paper's probe traffic sends a 1448-byte segment every 100 us; the
receiver's arrival log is what the connectivity-loss and packet-loss
metrics of Table III / Fig 4 are computed from (the 100 us interval is the
measurement granularity of the "duration of connectivity loss").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..dataplane.node import HostNode, NetworkNode
from ..net.ip import IPv4Address
from ..net.packet import PROTO_UDP, Packet, WIRE_OVERHEAD
from ..sim.engine import Simulator
from ..sim.units import Time, microseconds


@dataclass(frozen=True)
class UdpDatagram:
    """Application payload carried in probe packets."""

    seq: int
    sent_at: Time


@dataclass
class UdpArrival:
    """One received datagram, as logged by the sink."""

    seq: int
    sent_at: Time
    received_at: Time
    hops: int

    @property
    def delay(self) -> Time:
        return self.received_at - self.sent_at


class UdpSender:
    """Constant-rate UDP source (default: 1448 B every 100 us, as in §III)."""

    def __init__(
        self,
        sim: Simulator,
        host: HostNode,
        dst: IPv4Address,
        dport: int,
        sport: int = 10000,
        payload_bytes: int = 1448,
        interval: Time = microseconds(100),
    ) -> None:
        self.sim = sim
        self.host = host
        self.dst = dst
        self.dport = dport
        self.sport = sport
        self.payload_bytes = payload_bytes
        self.interval = interval
        self.sent = 0
        self._stop_at: Optional[Time] = None
        self._running = False

    def start(self, at: Time, stop_at: Optional[Time] = None) -> None:
        """Begin sending at absolute time ``at`` (until ``stop_at``)."""
        self._stop_at = stop_at
        self._running = True
        self.sim.schedule_at(at, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        if self._stop_at is not None and now >= self._stop_at:
            self._running = False
            return
        packet = Packet(
            src=self.host.ip,
            dst=self.dst,
            protocol=PROTO_UDP,
            size_bytes=self.payload_bytes + WIRE_OVERHEAD,
            sport=self.sport,
            dport=self.dport,
            payload=UdpDatagram(seq=self.sent, sent_at=now),
            created_at=now,
        )
        self.host.send(packet)
        self.sent += 1
        self.sim.call_at(now + self.interval, self._tick)


class UdpSink:
    """Receives probe datagrams and logs arrivals for the metrics layer."""

    def __init__(self, sim: Simulator, host: HostNode, port: int) -> None:
        self.sim = sim
        self.host = host
        self.port = port
        self.arrivals: List[UdpArrival] = []
        host.register_handler(PROTO_UDP, port, self._on_packet)

    def _on_packet(self, packet: Packet, node: NetworkNode) -> None:
        datagram = packet.payload
        if not isinstance(datagram, UdpDatagram):
            return
        self.arrivals.append(
            UdpArrival(
                seq=datagram.seq,
                sent_at=datagram.sent_at,
                received_at=self.sim.now,
                hops=packet.hops,
            )
        )

    @property
    def received(self) -> int:
        return len(self.arrivals)
