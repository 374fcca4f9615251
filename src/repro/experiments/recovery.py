"""The single-flow failure-recovery experiment (the paper's workhorse).

One flow runs from the leftmost to the rightmost host; at a fixed offset a
set of links fails; we measure what Table III / Fig 4 / Fig 5 measure:

* UDP — duration of connectivity loss, packets lost, end-to-end delay
  series (delay jumps by 17 us per extra hop during fast rerouting);
* TCP — duration of throughput collapse (20 ms bins, below half the
  pre-failure average).

The links to fail default to the flow's downward rack link — the
``(aggregation, destination-ToR)`` pair, or ``(spine, leaf)`` on 2-layer
fabrics — and can be overridden with an explicit list or a Table IV
scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..dataplane.params import NetworkParams
from ..failures.injector import FailureEvent, LinkKey, schedule_failures
from ..failures.scenarios import ConditionScenario
from ..metrics.timeseries import (
    ThroughputBin,
    connectivity_loss_duration,
    throughput_collapse_duration,
    throughput_series,
)
from ..net.packet import PROTO_TCP, PROTO_UDP, WIRE_OVERHEAD
from ..obs import Observability, RecoveryBreakdown, analyze_recovery
from ..sim.units import Time, microseconds, milliseconds, seconds
from ..topology.graph import Topology, link_key
from ..transport.apps import PacedTcpSender, TcpSinkServer
from ..transport.udp import UdpSender, UdpSink
from .common import (
    DEFAULT_WARMUP,
    build_bundle,
    leftmost_host,
    rightmost_host,
    trial_heap,
)

UDP_PORT = 7000
TCP_PORT = 7001
UDP_SPORT = 10001


@dataclass
class RecoveryResult:
    """Everything measured in one single-flow recovery run."""

    topology: str
    transport: str
    src: str
    dst: str
    path_before: List[str]
    failed_links: Tuple[LinkKey, ...]
    failure_time: Time
    flow_start: Time
    flow_end: Time
    # UDP metrics
    connectivity_loss: Optional[Time] = None
    packets_sent: int = 0
    packets_received: int = 0
    #: (received_at, end-to-end delay, hop count) per received probe
    delay_samples: List[Tuple[Time, Time, int]] = field(default_factory=list)
    # TCP metrics
    collapse_duration: Optional[Time] = None
    throughput: List[ThroughputBin] = field(default_factory=list)
    # path evolution
    path_during: Optional[Tuple[List[str], bool]] = None
    path_after: Optional[Tuple[List[str], bool]] = None
    #: per-phase recovery attribution (set when the run was traced)
    breakdown: Optional[RecoveryBreakdown] = None

    @property
    def packets_lost(self) -> int:
        return self.packets_sent - self.packets_received


def default_failed_links(path: Sequence[str]) -> Tuple[LinkKey, ...]:
    """The downward link above the destination rack (C1-equivalent)."""
    if len(path) < 5:
        raise ValueError(f"path too short to pick a downward link: {path}")
    return (link_key(path[-3], path[-2]),)


def run_recovery(
    topology: Topology,
    transport: str = "udp",
    scenario: Optional[ConditionScenario] = None,
    scenario_label: Optional[str] = None,
    failed_links: Optional[Sequence[LinkKey]] = None,
    params: Optional[NetworkParams] = None,
    seed: int = 1,
    warmup: Time = DEFAULT_WARMUP,
    fail_offset: Time = milliseconds(380),
    flow_duration: Time = seconds(2.5),
    drain: Time = seconds(1),
    backup_tie_break: str = "prefix-length",
    src: Optional[str] = None,
    dst: Optional[str] = None,
    routing: str = "linkstate",
    routing_options: Optional[object] = None,
    obs: Optional[Observability] = None,
) -> RecoveryResult:
    """Run one recovery experiment end to end.

    Exactly one of ``scenario``, ``scenario_label``, ``failed_links`` may
    be given; all omitted means the default single downward-link failure
    (the testbed experiment of §III, at the paper's 380 ms offset).
    ``routing`` selects the control plane (see
    :func:`repro.experiments.common.build_bundle`).  Passing an *enabled*
    ``obs`` records a trace and fills ``result.breakdown`` with the
    per-phase recovery attribution (on the packet backend; raises
    :class:`~repro.obs.TraceAnalysisError` when the trace ring wrapped
    past the failure).
    """
    with trial_heap() as settled:
        if transport not in ("udp", "tcp"):
            raise ValueError(f"unknown transport {transport!r}")
        bundle = build_bundle(
            topology, params=params, seed=seed, backup_tie_break=backup_tie_break,
            routing=routing, routing_options=routing_options, obs=obs,
        )
        settled()
        bundle.converge(warmup)

        src = src or leftmost_host(topology)
        dst = dst or rightmost_host(topology)
        network = bundle.network
        sim = bundle.sim

        if transport == "udp":
            sport, dport, proto = UDP_SPORT, UDP_PORT, PROTO_UDP
        else:
            # the first ephemeral port the sender's stack will allocate
            sport, dport, proto = 33000, TCP_PORT, PROTO_TCP
        path_before, complete = network.trace_route(src, dst, proto, sport, dport)
        if not complete:
            raise RuntimeError(f"no converged path {src} -> {dst}: {path_before}")

        given = sum(x is not None for x in (scenario, scenario_label, failed_links))
        if given > 1:
            raise ValueError("give at most one of scenario/scenario_label/failed_links")
        if scenario_label is not None:
            from ..failures.scenarios import build_scenario

            scenario = build_scenario(scenario_label, topology, path_before)
        if scenario is not None:
            links = tuple(scenario.failed)
        elif failed_links is not None:
            links = tuple(failed_links)
        else:
            links = default_failed_links(path_before)

        flow_start = warmup
        failure_time = flow_start + fail_offset
        flow_end = flow_start + flow_duration
        stop_at = flow_end + drain

        result = RecoveryResult(
            topology=topology.name,
            transport=transport,
            src=src,
            dst=dst,
            path_before=path_before,
            failed_links=links,
            failure_time=failure_time,
            flow_start=flow_start,
            flow_end=flow_end,
        )

        schedule_failures(
            network, [FailureEvent(failure_time, a, b) for a, b in links]
        )

        # trace the in-reroute path just after detection, and the final path
        detect_probe_at = failure_time + network.params.detection_delay + milliseconds(5)

        def probe_during() -> None:
            result.path_during = network.trace_route(src, dst, proto, sport, dport)

        def probe_after() -> None:
            result.path_after = network.trace_route(src, dst, proto, sport, dport)

        sim.schedule_at(detect_probe_at, probe_during)
        sim.schedule_at(stop_at - milliseconds(1), probe_after)

        # the carrier: the same flow on either backend — 1448-byte payloads
        # every 100 us; a fluid UDP flow carries the wire overhead so its
        # analytic path delay matches the packet backend's, a fluid TCP flow
        # is reliable (backlogs while its path is dead)
        model = bundle.flow_model
        if model is not None:
            flow = model.add_cbr_flow(
                f"recovery-{transport}", src, dst, dport=dport, sport=sport,
                protocol=proto,
                packet_bytes=1448 + WIRE_OVERHEAD if transport == "udp" else 1448,
                interval=microseconds(100), start=flow_start, stop=flow_end,
                reliable=transport == "tcp",
            )
        elif transport == "udp":
            sink = UdpSink(sim, network.host(dst), UDP_PORT)
            sender = UdpSender(
                sim, network.host(src), network.host(dst).ip, UDP_PORT, sport=UDP_SPORT
            )
            sender.start(at=flow_start, stop_at=flow_end)
        else:
            tcp_sink = TcpSinkServer(sim, network.host(dst), TCP_PORT)
            PacedTcpSender(
                sim, network.host(src), network.host(dst).ip, TCP_PORT
            ).start(at=flow_start, stop_at=flow_end)
        sim.run_until(stop_at)
        if model is not None:
            model.finalize()

        # the readout: the same metric functions over either carrier's log
        if transport == "udp":
            if model is None:
                result.packets_sent, arrivals = sender.sent, sink.arrivals
            else:
                result.packets_sent, arrivals = flow.sent, flow.arrivals()
            result.packets_received = len(arrivals)
            result.connectivity_loss = connectivity_loss_duration(
                [a.received_at for a in arrivals], failure_time
            )
            result.delay_samples = [(a.received_at, a.delay, a.hops) for a in arrivals]
            result.throughput = throughput_series(
                [(a.received_at, 1448) for a in arrivals], flow_start, flow_end
            )
        else:
            deliveries = tcp_sink.deliveries if model is None else flow.deliveries()
            result.collapse_duration = throughput_collapse_duration(
                deliveries, flow_start, failure_time, flow_end
            )
            result.throughput = throughput_series(deliveries, flow_start, flow_end)
        if obs is not None and obs.enabled and model is None:
            # per-phase attribution reads packet delivery events off the
            # trace, which the fluid backend doesn't generate
            result.breakdown = analyze_recovery(
                obs.trace,
                dst=dst,
                dport=dport,
                failure_time=failure_time,
            )
        if obs is not None:
            network.fold_fib_chain_counters(obs.metrics)
        return result


def reroute_delay_microseconds(
    result: RecoveryResult,
) -> Tuple[float, float, float]:
    """(before, during-reroute, after-convergence) mean e2e delay in us.

    "During reroute" means samples between failure detection and the
    control plane's FIB update; Fig 5 shows 100 us -> 117 us -> 100 us for
    C1 (one extra 17 us hop while fast rerouting).  A traced run knows the
    *actual* detection instant from its breakdown; untraced runs fall back
    to the paper's nominal 60 ms detection delay.
    """
    if not result.delay_samples:
        raise ValueError("no UDP delay samples (TCP run?)")
    if result.breakdown is not None and result.breakdown.detected_time is not None:
        detection = result.breakdown.detected_time
    else:
        detection = result.failure_time + milliseconds(60)

    def mean(samples: List[Time]) -> float:
        return sum(samples) / len(samples) / 1000.0 if samples else float("nan")

    before = [d for t, d, _ in result.delay_samples if t < result.failure_time]
    # take a slice well inside the reroute window
    during = [
        d
        for t, d, _ in result.delay_samples
        if detection + milliseconds(5) <= t <= detection + milliseconds(100)
    ]
    after = [
        d
        for t, d, _ in result.delay_samples
        if t >= result.flow_end - milliseconds(300)
    ]
    return mean(before), mean(during), mean(after)
