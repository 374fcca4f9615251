"""The Fig 6 traffic carried on the fluid backend (§IV-B).

Requests and background transfers are drawn by the functions the packet
drivers use (:func:`~repro.workloads.partition_aggregate.draw_requests`,
:func:`~repro.workloads.background.draw_background`), so with equal
seeds both backends carry identical traffic and their results differ
only by transport model.  Here each worker response and background
transfer is a **reliable paced fluid flow**
(:meth:`repro.sim.flow.FluidTrafficModel.add_paced_flow`) instead of a
TCP connection, which is what lets Fig 6 run at scales the packet
backend cannot reach.

What the fluid view approximates (beyond DESIGN §11):

* the 64-byte request leg is folded into the response start: its
  one-way latency is microseconds against a 250 ms deadline, and a
  dead requester→worker path almost always means the worker→requester
  response path shares the failed link in reverse, where the response
  flow backlogs until heal — first-order the same outcome as TCP
  retrying the request;
* a response/transfer offers whole packets (``ceil(bytes / packet)``),
  matching full-segment pacing rather than exact byte counts;
* completion is read analytically after :meth:`collect` — a flow whose
  backlog never drains stays incomplete and is censored by
  :attr:`~repro.metrics.requests.RequestStats.censored_at`, exactly
  like an unfinished TCP request at experiment end.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..dataplane.network import Network
from ..metrics.requests import RequestRecord, RequestStats
from ..net.packet import PROTO_TCP
from ..sim.flow.model import FluidFlow, FluidTrafficModel
from ..sim.randomness import RandomStreams
from ..sim.units import Time, microseconds
from .background import SINK_PORT, BackgroundFlow, draw_background
from .partition_aggregate import WORKER_PORT, Request, draw_requests, fanout_hosts

#: base of the deterministic ephemeral-port counter; each fluid flow
#: gets a distinct client port so five-tuple ECMP hashing spreads the
#: fan-out across paths exactly like distinct TCP connections would
EPHEMERAL_BASE = 49152
EPHEMERAL_SPAN = 16384

#: pacing of a 2 KB response: 1024-byte packets every 2 us (~4.1 Gb/s
#: offered) — fast against the 250 ms deadline, below link rate, so an
#: uncongested response is latency-dominated, not pacing-dominated
RESPONSE_PACKET_BYTES = 1024
RESPONSE_INTERVAL: Time = microseconds(2)

#: pacing of background transfers: full 1448-byte segments at ~9.7 Gb/s
#: offered — effectively elastic (the fair share, not the pacing, is
#: the binding constraint on a healthy 10 Gb/s path)
BACKGROUND_PACKET_BYTES = 1448
BACKGROUND_INTERVAL: Time = microseconds(1.2)


def _paced_span(size_bytes: int, packet_bytes: int, interval: Time) -> Time:
    """Offer duration for ``size_bytes`` at the given pacing (whole
    packets; ``FluidFlow.offered_bytes`` is demand x span, so the span
    must cover ceil(size / packet) ticks exactly)."""
    ticks = -(-size_bytes // packet_bytes)
    return ticks * interval


class FlowPartitionAggregateWorkload:
    """Carries drawn requests as fan-out response fluid flows."""

    def __init__(
        self,
        network: Network,
        model: FluidTrafficModel,
        streams: RandomStreams,
        n_requests: int,
        fanout: int = 8,
        response_bytes: int = 2048,
    ) -> None:
        self._hosts = fanout_hosts(network, fanout)
        self.model = model
        self.sim = network.sim
        self.rng = streams.stream("partition-aggregate")
        self.n_requests = n_requests
        self.fanout = fanout
        self.response_bytes = response_bytes
        self.stats = RequestStats()
        #: (record, fan-out response flows) per launched request, in
        #: launch order; resolved into completions by :meth:`collect`
        self._pending: List[Tuple[RequestRecord, List[FluidFlow]]] = []
        self._port_counter = 0

    def schedule(self, start: Time, horizon: Time) -> None:
        """Draw the requests over [start, start+horizon); schedule each."""
        for request in draw_requests(
            self.rng, self._hosts, self.n_requests, self.fanout, start, horizon
        ):
            self.sim.schedule_at(request.at, self._launch_request, request)

    def _next_port(self) -> int:
        port = EPHEMERAL_BASE + self._port_counter % EPHEMERAL_SPAN
        self._port_counter += 1
        return port

    def _launch_request(self, request: Request) -> None:
        record = RequestRecord(started_at=request.at)
        self.stats.records.append(record)
        index = len(self.stats.records) - 1
        stop = request.at + _paced_span(
            self.response_bytes, RESPONSE_PACKET_BYTES, RESPONSE_INTERVAL
        )
        responses = [
            self.model.add_paced_flow(
                f"pa-{index}-{worker.name}",
                worker.name,
                request.requester.name,
                dport=self._next_port(),
                sport=WORKER_PORT,
                protocol=PROTO_TCP,
                packet_bytes=RESPONSE_PACKET_BYTES,
                interval=RESPONSE_INTERVAL,
                start=request.at,
                stop=stop,
            )
            for worker in request.workers
        ]
        self._pending.append((record, responses))

    def collect(self) -> None:
        """Resolve completions (call after ``model.finalize()``): a
        request completes at the instant its *slowest* fan-out response
        finishes; any response that never drained leaves the request
        incomplete (censored by the caller via ``stats.censored_at``)."""
        for record, responses in self._pending:
            completions = [flow.completion_time() for flow in responses]
            if all(at is not None for at in completions):
                record.completed_at = max(at for at in completions if at is not None)


class FlowBackgroundTraffic:
    """Carries drawn background flows as reliable fluid transfers."""

    def __init__(
        self,
        network: Network,
        model: FluidTrafficModel,
        streams: RandomStreams,
        mean_flow_bytes: int = 50_000,
        size_sigma: float = 1.5,
        gap_sigma: float = 1.0,
    ) -> None:
        self.model = model
        self.sim = network.sim
        self.rng = streams.stream("background")
        self.mean_flow_bytes = mean_flow_bytes
        self.size_sigma = size_sigma
        self.gap_sigma = gap_sigma
        self.flows: List[BackgroundFlow] = []
        self._transfers: List[Tuple[BackgroundFlow, FluidFlow]] = []
        self._hosts = network.hosts()
        self._port_counter = 0

    def schedule(self, n_flows: int, start: Time, horizon: Time) -> None:
        """Draw ``n_flows`` transfers over [start, start + horizon);
        schedule each."""
        for flow in draw_background(
            self.rng, self._hosts, n_flows, start, horizon,
            self.mean_flow_bytes, self.size_sigma, self.gap_sigma,
        ):
            self.sim.schedule_at(flow.started_at, self._launch_flow, flow)

    def _launch_flow(self, flow: BackgroundFlow) -> None:
        self.flows.append(flow)
        self._port_counter += 1
        span = _paced_span(flow.size_bytes, BACKGROUND_PACKET_BYTES, BACKGROUND_INTERVAL)
        transfer = self.model.add_paced_flow(
            f"bg-{len(self.flows) - 1}",
            flow.src,
            flow.dst,
            dport=SINK_PORT,
            sport=EPHEMERAL_BASE + self._port_counter % EPHEMERAL_SPAN,
            protocol=PROTO_TCP,
            packet_bytes=BACKGROUND_PACKET_BYTES,
            interval=BACKGROUND_INTERVAL,
            start=flow.started_at,
            stop=flow.started_at + span,
        )
        self._transfers.append((flow, transfer))

    def collect(self) -> None:
        """Resolve completions (call after ``model.finalize()``)."""
        for flow, transfer in self._transfers:
            done: Optional[Time] = transfer.completion_time()
            if done is not None and flow.completed_at is None:
                flow.completed_at = done

    @property
    def completed(self) -> int:
        return sum(1 for f in self.flows if f.completed_at is not None)
