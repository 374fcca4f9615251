"""Partition-aggregate workload (§IV-B).

"We randomly pick some end hosts, each of which sends a small TCP single
request to each of 8 other end hosts, and waits for a 2KB response from
each machine" — the classic front-end DCN pattern [24].  A request
completes when **all** fan-out responses have arrived; completion times are
scored against the 250 ms deadline [23].  The requests are drawn once
(:func:`draw_requests`); a driver only carries them — as TCP here, as
fluid flows in :mod:`repro.workloads.flow_partition_aggregate`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dataplane.network import Network
from ..dataplane.node import HostNode
from ..metrics.requests import RequestRecord, RequestStats
from ..sim.randomness import RandomStreams
from ..sim.units import Time
from ..transport.apps import RequestOutcome, RequestResponseServer, issue_request
from ..transport.tcp import TcpParams, TcpStack
from .arrivals import launch_times

#: well-known port every host's worker server listens on
WORKER_PORT = 5000


@dataclass(frozen=True)
class Request:
    """One drawn request: when it launches, who asks, who answers."""

    at: Time
    requester: HostNode
    workers: Tuple[HostNode, ...]


def fanout_hosts(network: Network, fanout: int) -> List[HostNode]:
    """The hosts, checked to hold a requester plus ``fanout`` workers."""
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    hosts = network.hosts()
    if len(hosts) < fanout + 1:
        raise ValueError(f"need at least {fanout + 1} hosts, have {len(hosts)}")
    return hosts


def draw_requests(
    rng: random.Random,
    hosts: List[HostNode],
    n_requests: int,
    fanout: int,
    start: Time,
    horizon: Time,
) -> List[Request]:
    """Spread ``n_requests`` Poisson-style over ``[start, start + horizon)``,
    each with a requester and ``fanout`` distinct workers."""
    requests: List[Request] = []
    for at in launch_times(
        n_requests, start, horizon, lambda mean: rng.expovariate(1.0 / mean)
    ):
        requester = hosts[rng.randrange(len(hosts))]
        workers = rng.sample([h for h in hosts if h.name != requester.name], fanout)
        requests.append(Request(at, requester, tuple(workers)))
    return requests


class PartitionAggregateWorkload:
    """Carries drawn requests as TCP request/response exchanges."""

    def __init__(
        self,
        network: Network,
        streams: RandomStreams,
        n_requests: int,
        fanout: int = 8,
        request_bytes: int = 64,
        response_bytes: int = 2048,
        tcp_params: Optional[TcpParams] = None,
    ) -> None:
        self._hosts = fanout_hosts(network, fanout)
        self.sim = network.sim
        self.rng = streams.stream("partition-aggregate")
        self.n_requests = n_requests
        self.fanout = fanout
        self.request_bytes = request_bytes
        self.response_bytes = response_bytes
        self.tcp_params = tcp_params or TcpParams()
        self.stats = RequestStats()
        self._stacks: Dict[str, TcpStack] = {}
        self._servers = [
            RequestResponseServer(
                self.sim, host, WORKER_PORT,
                request_bytes=request_bytes,
                response_bytes=response_bytes,
                params=self.tcp_params,
            )
            for host in self._hosts
        ]

    def schedule(self, start: Time, horizon: Time) -> None:
        """Draw the requests over [start, start+horizon); schedule each."""
        for request in draw_requests(
            self.rng, self._hosts, self.n_requests, self.fanout, start, horizon
        ):
            self.sim.schedule_at(request.at, self._launch_request, request)

    def _stack_of(self, host: HostNode) -> TcpStack:
        stack = self._stacks.get(host.name)
        if stack is None:
            stack = TcpStack(self.sim, host, self.tcp_params)
            self._stacks[host.name] = stack
        return stack

    def _launch_request(self, request: Request) -> None:
        record = RequestRecord(started_at=request.at)
        self.stats.records.append(record)
        progress = {"remaining": self.fanout, "failed": 0}

        def on_complete(outcome: RequestOutcome) -> None:
            progress["remaining"] -= 1
            if outcome.failed:
                progress["failed"] += 1
            if progress["remaining"] == 0 and progress["failed"] == 0:
                record.completed_at = self.sim.now

        stack = self._stack_of(request.requester)
        for worker in request.workers:
            issue_request(
                self.sim,
                stack,
                worker.ip,
                WORKER_PORT,
                request_bytes=self.request_bytes,
                response_bytes=self.response_bytes,
                on_complete=on_complete,
                params=self.tcp_params,
            )
