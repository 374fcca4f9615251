"""Production-scale recovery trials on the fluid backend.

The packet backend's cost is dominated by per-packet events — initial
LSA flooding alone is O(V·E) control packets, and probe traffic adds a
packet per 100 us per flow — which caps it at small fabrics (a k=12
recovery trial already takes seconds).  This
module composes the three scale mechanisms of :mod:`repro.sim.flow`
into one runnable trial at production scale — k=32 (1280 switches) by
default, k=48 (2880 switches, 3.3M warm-started FIB entries) in
``repro bench``:

1. :func:`~repro.sim.flow.warmstart.warm_start_linkstate` builds the
   converged control plane directly (no initial flooding events) and
   backs every instance's SPF with one shared batch oracle;
2. the :class:`~repro.sim.flow.FluidTrafficModel` carries the probe
   flow analytically (a handful of recompute events instead of tens of
   thousands of packet events);
3. the post-failure reconvergence — detection, flooding of the *change*,
   SPF throttling, FIB deltas — stays fully event-driven, so the
   recovery timeline is the mechanism under study, not an analytic
   shortcut.

:func:`repro.bench.bench_flow_backend` wall-clocks this trial at k=48
against an absolute budget and records its peak RSS; the packet backend
cannot run that fabric, so no speedup is claimed at this scale (the
bench's fluid/packet ratio is measured on a k=12 ``run_recovery`` both
backends finish).  At k=8 the trial reports the same loss and probe
counts as ``run_recovery`` on the fluid backend with a 200 ms warm-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..dataplane.network import Network
from ..dataplane.params import NetworkParams
from ..failures.injector import FailureEvent, LinkKey, schedule_failures
from ..metrics.timeseries import connectivity_loss_duration
from ..net.packet import PROTO_UDP, WIRE_OVERHEAD
from ..sim.engine import Simulator
from ..sim.flow import FluidTrafficModel
from ..sim.flow.warmstart import BatchRouteOracle, warm_start_linkstate
from ..sim.units import Time, microseconds, milliseconds, seconds
from ..topology.fattree import fat_tree
from .common import leftmost_host, rightmost_host, trial_heap
from .recovery import UDP_PORT, UDP_SPORT, default_failed_links


@dataclass
class FlowScaleResult:
    """One warm-started fluid recovery trial at scale."""

    topology: str
    n_switches: int
    n_links: int
    src: str
    dst: str
    failed_links: Tuple[LinkKey, ...]
    failure_time: Time
    connectivity_loss: Optional[Time]
    packets_sent: int
    packets_received: int
    path_after_complete: bool
    #: engine economics: total events processed, batch SPF runs vs
    #: cache hits, and fluid recompute count
    events_processed: int
    batch_spf_runs: int
    batch_spf_hits: int
    flow_recomputes: int


def run_flow_scale_trial(
    ports: int = 32,
    hosts_per_tor: int = 1,
    params: Optional[NetworkParams] = None,
    warmup: Time = milliseconds(200),
    fail_offset: Time = milliseconds(380),
    flow_duration: Time = seconds(2.5),
    drain: Time = seconds(1),
) -> FlowScaleResult:
    """One single-flow recovery trial on a warm-started k-ary fat tree.

    Mirrors :func:`repro.experiments.recovery.run_recovery`'s UDP shape
    (1500-byte wire packets every 100 us, leftmost -> rightmost host,
    downward rack link failing at ``warmup + fail_offset``) so the
    measured recovery is directly comparable — but the control plane is
    warm-started, so ``warmup`` only needs to cover probe settling, not
    O(V·E) initial flooding.  One host per ToR keeps the prefix count at
    the switch subnets (the fabric is unchanged).
    """
    with trial_heap() as settled:
        topology = fat_tree(ports, hosts_per_tor=hosts_per_tor)
        base = params if params is not None else NetworkParams()
        base = base.with_overrides(backend="flow")

        sim = Simulator()
        network = Network(topology, sim, base)
        oracle = BatchRouteOracle()
        warm_start_linkstate(network, oracle=oracle)
        # attach the fluid model only after the bulk FIB load: the warm
        # start's V install batches would otherwise fan out V notifications
        model = FluidTrafficModel(network)
        settled()

        src, dst = leftmost_host(topology), rightmost_host(topology)
        path_before, complete = network.trace_route(
            src, dst, PROTO_UDP, UDP_SPORT, UDP_PORT
        )
        if not complete:
            raise RuntimeError(
                f"warm-started network cannot route {src} -> {dst}: {path_before}"
            )
        links = default_failed_links(path_before)

        flow_start = warmup
        failure_time = flow_start + fail_offset
        flow_end = flow_start + flow_duration
        stop_at = flow_end + drain
        schedule_failures(
            network, [FailureEvent(failure_time, a, b) for a, b in links]
        )
        flow = model.add_cbr_flow(
            "scale-probe", src, dst, dport=UDP_PORT, sport=UDP_SPORT,
            protocol=PROTO_UDP, packet_bytes=1448 + WIRE_OVERHEAD,
            interval=microseconds(100), start=flow_start, stop=flow_end,
        )
        path_after: List[object] = [None]

        def probe_after() -> None:
            path_after[0] = network.trace_route(src, dst, PROTO_UDP, UDP_SPORT, UDP_PORT)

        sim.schedule_at(stop_at - milliseconds(1), probe_after)
        sim.run_until(stop_at)
        model.finalize()

        arrivals = flow.arrivals()
        loss = connectivity_loss_duration([a.received_at for a in arrivals], failure_time)
        after = path_after[0]
        return FlowScaleResult(
            topology=topology.name,
            n_switches=sum(1 for _ in network.switches()),
            n_links=len(network.links),
            src=src,
            dst=dst,
            failed_links=links,
            failure_time=failure_time,
            connectivity_loss=loss,
            packets_sent=flow.sent,
            packets_received=len(arrivals),
            path_after_complete=bool(after[1]) if after is not None else False,
            events_processed=sim.events_processed,
            batch_spf_runs=oracle.batch_runs,
            batch_spf_hits=oracle.hits,
            flow_recomputes=model.recomputes,
        )
