"""Background traffic (§IV-B).

"The flow sizes and inter-arrival intervals of the background traffic obey
the log-normal distribution derived from real operational DCNs [25]" —
Benson et al. measured heavy-tailed, mostly-small flows.  We draw sizes and
inter-arrivals from log-normals with configurable arithmetic means (the
paper's run: 1500 flows over 600 s), once (:func:`draw_background`); a
driver only carries the drawn flows — as TCP here, as fluid flows in
:mod:`repro.workloads.flow_partition_aggregate`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..dataplane.network import Network
from ..dataplane.node import HostNode
from ..sim.randomness import RandomStreams, lognormal_from_mean_sigma
from ..sim.units import Time
from ..transport.apps import TcpSinkServer
from ..transport.tcp import TcpConnection, TcpParams, TcpStack
from .arrivals import launch_times

#: well-known port every host's bulk sink listens on
SINK_PORT = 5001


@dataclass
class BackgroundFlow:
    """One background transfer."""

    src: str
    dst: str
    size_bytes: int
    started_at: Time
    completed_at: Optional[Time] = None


def draw_background(
    rng: random.Random,
    hosts: List[HostNode],
    n_flows: int,
    start: Time,
    horizon: Time,
    mean_flow_bytes: int,
    size_sigma: float,
    gap_sigma: float,
) -> List[BackgroundFlow]:
    """``n_flows`` transfers over ``[start, start + horizon)`` between
    distinct hosts, of log-normal size (at least one segment)."""
    flows: List[BackgroundFlow] = []
    for at in launch_times(
        n_flows, start, horizon,
        lambda mean: lognormal_from_mean_sigma(rng, mean, gap_sigma),
    ):
        src = hosts[rng.randrange(len(hosts))]
        dst = src
        while dst.name == src.name:
            dst = hosts[rng.randrange(len(hosts))]
        size = round(lognormal_from_mean_sigma(rng, mean_flow_bytes, size_sigma))
        flows.append(BackgroundFlow(src.name, dst.name, max(1448, size), at))
    return flows


class BackgroundTraffic:
    """Carries drawn background flows as TCP transfers."""

    def __init__(
        self,
        network: Network,
        streams: RandomStreams,
        mean_flow_bytes: int = 50_000,
        size_sigma: float = 1.5,
        gap_sigma: float = 1.0,
        tcp_params: Optional[TcpParams] = None,
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.rng = streams.stream("background")
        self.mean_flow_bytes = mean_flow_bytes
        self.size_sigma = size_sigma
        self.gap_sigma = gap_sigma
        self.tcp_params = tcp_params or TcpParams()
        self.flows: List[BackgroundFlow] = []
        self._stacks: Dict[str, TcpStack] = {}
        self._hosts = network.hosts()
        self._sinks = [TcpSinkServer(self.sim, host, SINK_PORT) for host in self._hosts]

    def schedule(self, n_flows: int, start: Time, horizon: Time) -> None:
        """Draw ``n_flows`` transfers over [start, start + horizon);
        schedule each."""
        for flow in draw_background(
            self.rng, self._hosts, n_flows, start, horizon,
            self.mean_flow_bytes, self.size_sigma, self.gap_sigma,
        ):
            self.sim.schedule_at(flow.started_at, self._launch_flow, flow)

    def _stack_of(self, name: str) -> TcpStack:
        stack = self._stacks.get(name)
        if stack is None:
            stack = TcpStack(self.sim, self.network.host(name), self.tcp_params)
            self._stacks[name] = stack
        return stack

    def _launch_flow(self, flow: BackgroundFlow) -> None:
        self.flows.append(flow)
        connection = self._stack_of(flow.src).open(
            self.network.host(flow.dst).ip, SINK_PORT
        )
        connection.send(flow.size_bytes)

        def on_all_acked(conn: TcpConnection) -> None:
            if flow.completed_at is None:
                flow.completed_at = self.sim.now
                conn.close()

        connection.on_all_acked = on_all_acked

    @property
    def completed(self) -> int:
        return sum(1 for f in self.flows if f.completed_at is not None)
