"""Run one check trial: build, converge, inject, verify.

:func:`execute_check` is deliberately a pure function of its
``(config, mutant)`` arguments: the same pair always produces the same
:class:`CheckOutcome`, violations included, which is what makes replay
bundles byte-identical and delta-debugging sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..dataplane.network import Network
from ..failures.injector import FailureEvent, schedule_failures
from ..failures.scenarios import ConditionScenario, build_scenario
from ..net.packet import PROTO_UDP, WIRE_OVERHEAD
from ..obs import Observability
from ..sim.engine import (
    PRIORITY_NORMAL,
    EventHandle,
    SimulationError,
    Simulator,
)
from ..sim.units import Time, milliseconds
from ..topology.graph import Topology
from ..transport.udp import UdpSender, UdpSink
from .config import TrialConfig, build_topology, quiescence_bound
from .invariants import InvariantSuite, Violation

if TYPE_CHECKING:
    from ..experiments.common import Bundle
    from .mutants import FaultMutant

#: probe flow five-tuple constants (fixed so traces are comparable)
PROBE_SPORT = 10000
PROBE_DPORT = 7000

#: priority for invariant checks: after every control/data event at the
#: same timestamp (failures fire at PRIORITY_CONTROL=0, traffic at 10)
PRIORITY_CHECK = 90

#: offset of a scenario's (simultaneous) failures after warmup
SCENARIO_OFFSET: Time = milliseconds(100)


class CheckError(RuntimeError):
    """A check trial could not even be set up (distinct from a violation)."""


class CheckedSimulator(Simulator):
    """Simulator subclass that audits the engine while it runs.

    Every scheduled callback is wrapped to verify the two properties a
    discrete-event engine must never break: an event fires at exactly
    the time it was scheduled for, and the clock never moves backwards.
    Violations are collected in :attr:`timing_violations` for the
    ``sim-sanity`` invariant rather than raised, so one engine bug does
    not mask later ones.
    """

    def __init__(self, obs: Optional[Observability] = None) -> None:
        super().__init__(obs=obs)
        #: (scheduled time, fire time, description) triples
        self.timing_violations: List[Tuple[Time, Time, str]] = []
        self._last_fire: Time = 0

    def schedule_at(
        self,
        time: Time,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        def audited(*call_args: Any) -> None:
            now = self.now
            if now != time:
                self.timing_violations.append(
                    (time, now, f"event {_describe(callback)} fired off-schedule")
                )
            if now < self._last_fire:
                self.timing_violations.append(
                    (self._last_fire, now,
                     f"clock regressed before {_describe(callback)}")
                )
            self._last_fire = max(self._last_fire, now)
            return callback(*call_args)

        return super().schedule_at(time, audited, *args, priority=priority)

    def schedule(
        self,
        delay: Time,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        # the base class inlines schedule() for speed instead of routing
        # through schedule_at(), so the audit wrapper must be applied on
        # this path explicitly
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(
            self.now + delay, callback, *args, priority=priority
        )

    def call_at(
        self, time: Time, callback: Callable[..., None], *args: Any
    ) -> None:
        # the handle-free path posts most of a trial's events (every
        # link hop), so it is audited like the other two
        self.schedule_at(time, callback, *args)


def _describe(callback: Callable[..., None]) -> str:
    return getattr(callback, "__qualname__", repr(callback))


@dataclass
class CheckEnv:
    """Everything the invariant suite needs to interrogate one trial."""

    config: TrialConfig
    topo: Topology
    network: Network
    protocols: Dict[str, Any]
    sim: Simulator
    src: str
    dst: str
    probe_sport: int = PROBE_SPORT
    probe_dport: int = PROBE_DPORT


@dataclass
class CheckOutcome:
    """The deterministic result of one check trial."""

    config: TrialConfig
    violations: List[Violation]
    #: the resolved event sequence (scenario profiles get concrete events)
    events: Tuple[FailureEvent, ...]
    stats: Dict[str, Any]
    #: obs trace event dicts when executed with ``traced=True``
    trace: Optional[List[Dict[str, Any]]] = None
    #: causal span tree of the traced run (flight-recorder payload)
    spans: Optional[Dict[str, Any]] = None
    #: post-quiescence FIBs when executed with ``capture_fibs=True``:
    #: switch -> {prefix: sorted next hops} (not serialized into replay
    #: bundles — the differential harness compares them in memory)
    fibs: Optional[Dict[str, Dict[str, List[str]]]] = None

    @property
    def invariants_violated(self) -> List[str]:
        return sorted({v.invariant for v in self.violations})


def _resolve_scenario(
    config: TrialConfig, bundle: "Bundle", src: str, dst: str
) -> Tuple[ConditionScenario, List[str], Tuple[FailureEvent, ...]]:
    """Build the Table IV scenario on this bundle's converged best path."""
    path, completed = bundle.network.trace_route(
        src, dst, PROTO_UDP, PROBE_SPORT, PROBE_DPORT
    )
    if not completed:
        raise CheckError(
            f"converged network cannot route {src}->{dst}; "
            f"probe died after {path}"
        )
    if config.scenario is None:
        raise CheckError("scenario profile without a scenario label")
    scenario = build_scenario(config.scenario, bundle.topology, path)
    at = config.warmup + SCENARIO_OFFSET
    events = tuple(FailureEvent(at, a, b) for a, b in scenario.failed)
    return scenario, path, events


def execute_check(
    config: TrialConfig,
    mutant: Optional["FaultMutant"] = None,
    traced: bool = False,
    capture_fibs: bool = False,
) -> CheckOutcome:
    """Run one trial and evaluate the full invariant catalog.

    ``mutant`` (a :class:`~repro.check.mutants.FaultMutant`) seeds a
    deliberate fault into the system under test before events fire;
    ``traced`` attaches an unbounded obs trace for replay bundles;
    ``capture_fibs`` snapshots every switch's post-quiescence FIB into
    :attr:`CheckOutcome.fibs` for cross-backend comparison.

    The trial honors ``backend`` from the config's overrides: with
    ``backend=flow`` the probe traffic is a fluid CBR flow on the
    bundle's :class:`~repro.sim.flow.FluidTrafficModel` instead of
    discrete UDP packets — every invariant is evaluated through
    ``trace_route`` against live FIB/detection state, so the catalog is
    identical across backends.
    """
    from ..experiments.common import build_bundle, leftmost_host, rightmost_host

    topo = build_topology(config)
    params = config.params()
    obs = Observability(enabled=True, capacity=0) if traced else None
    sim = CheckedSimulator(obs=obs)
    bundle = build_bundle(
        topo,
        params=params,
        seed=config.seed,
        backup_tie_break=(
            mutant.backup_tie_break if mutant is not None else "prefix-length"
        ),
        sim=sim,
    )
    bundle.converge(until=config.warmup)
    if mutant is not None:
        mutant.apply(bundle)

    src, dst = leftmost_host(topo), rightmost_host(topo)
    env = CheckEnv(
        config=config, topo=topo, network=bundle.network,
        protocols=bundle.protocols, sim=sim, src=src, dst=dst,
    )
    suite = InvariantSuite(env)

    scenario = None
    path_before: Optional[List[str]] = None
    if config.profile == "scenario":
        scenario, path_before, events = _resolve_scenario(
            config, bundle, src, dst
        )
    else:
        events = tuple(
            FailureEvent(at, a, b, restore_at)
            for at, a, b, restore_at in config.events
        )
    schedule_failures(bundle.network, events)

    bound = quiescence_bound(params)
    detect = max(params.detection_delay, params.up_detection_delay)
    times = sorted(
        {e.at for e in events}
        | {e.restore_at for e in events if e.restore_at is not None}
    )
    last = times[-1] if times else config.warmup
    horizon = last + bound + milliseconds(20)

    # continuous probe traffic feeds the conservation invariant (and the
    # obs trace); it stops early enough that everything in flight drains
    probe_flow = None
    model = bundle.flow_model
    if model is not None:
        probe_flow = model.add_cbr_flow(
            "check-probe", src, dst, dport=PROBE_DPORT, sport=PROBE_SPORT,
            packet_bytes=200 + WIRE_OVERHEAD, interval=milliseconds(1),
            start=config.warmup, stop=horizon - milliseconds(10),
        )
    else:
        sender = UdpSender(
            sim, bundle.network.host(src), bundle.network.host(dst).ip,
            PROBE_DPORT, sport=PROBE_SPORT, payload_bytes=200,
            interval=milliseconds(1),
        )
        sink = UdpSink(sim, bundle.network.host(dst), PROBE_DPORT)
        sender.start(at=config.warmup, stop_at=horizon - milliseconds(10))

    # mid-convergence loop checks: at each event instant (right after the
    # topology change, before any detection) and again just past the
    # detection window (backup routes engaged, SPF not yet installed)
    for t in times:
        sim.schedule_at(
            t, suite.check_loop_freedom_during, priority=PRIORITY_CHECK
        )
        sim.schedule_at(
            t + detect + milliseconds(1),
            suite.check_loop_freedom_during,
            priority=PRIORITY_CHECK,
        )
    # black-hole bound: only for events whose quiescence window is quiet
    for t in times:
        if all(not (t < other <= t + bound) for other in times):
            sim.schedule_at(
                t + bound, suite.check_blackhole, t, priority=PRIORITY_CHECK
            )
    # fast-reroute window: scenario profiles with backup routes in place
    if scenario is not None and bundle.backup_config is not None:
        sim.schedule_at(
            times[0] + detect + milliseconds(2),
            suite.check_frr_window,
            scenario,
            path_before,
            priority=PRIORITY_CHECK,
        )

    sim.run(until=horizon + milliseconds(1))
    suite.run_quiescent_checks()
    if model is not None:
        model.finalize()

    chain_hits, chain_misses = bundle.network.fold_fib_chain_counters(
        sim.obs.metrics
    )
    snapshot = sim.obs.metrics.snapshot()

    if probe_flow is not None:
        probes_sent, probes_received = probe_flow.sent, probe_flow.received
    else:
        probes_sent, probes_received = sender.sent, sink.received
    stats: Dict[str, Any] = {
        "probes_sent": probes_sent,
        "probes_received": probes_received,
        "events_processed": sim.events_processed,
        "n_events": len(events),
        "checks": dict(sorted(suite.checks_run.items())),
        "caches": {
            "spf_cache": {
                "hits": int(snapshot.get("spf.cache.hits", 0)),
                "misses": int(snapshot.get("spf.cache.misses", 0)),
            },
            "fib_chain": {"hits": chain_hits, "misses": chain_misses},
        },
    }
    if model is not None:
        stats["flow_model"] = model.stats()
    trace = None
    spans = None
    if traced:
        import json

        from ..obs.spans import SpanError, build_recovery_spans, counters_from_metrics

        trace = [json.loads(event.to_json()) for event in sim.obs.trace]
        try:
            spans = build_recovery_spans(
                sim.obs.trace,
                dst=dst,
                dport=PROBE_DPORT,
                counters=counters_from_metrics(snapshot),
                evicted=sim.obs.trace.evicted,
            ).to_dict()
        except SpanError:
            spans = None
    return CheckOutcome(
        config=config,
        violations=list(suite.violations),
        events=events,
        stats=stats,
        trace=trace,
        spans=spans,
        fibs=snapshot_fibs(bundle.network) if capture_fibs else None,
    )


def snapshot_fibs(network: Network) -> Dict[str, Dict[str, List[str]]]:
    """Every switch's FIB as plain sorted strings, for exact comparison.

    Next-hop *sets* are compared (sorted), not the ECMP tuple order —
    both backends install from the same deterministic route computation,
    but the comparison shouldn't depend on that implementation detail.
    """
    return {
        switch.name: {
            str(entry.prefix): sorted(str(hop) for hop in entry.next_hops)
            for entry in switch.fib.entries()
        }
        for switch in network.switches()
    }


def concretize(config: TrialConfig) -> TrialConfig:
    """Rewrite a scenario-profile config as an explicit events profile.

    Runs the warmup once to discover the converged best path the
    scenario builder anchors on, then pins the resulting link failures
    as absolute-time events.  Used by the shrinker (events are what it
    minimizes) and by mutants that need a Table IV failure pattern
    without the scenario-only FRR-window check.
    """
    from ..experiments.common import build_bundle, leftmost_host, rightmost_host

    if config.profile != "scenario":
        return config
    topo = build_topology(config)
    bundle = build_bundle(topo, params=config.params(), seed=config.seed)
    bundle.converge(until=config.warmup)
    src, dst = leftmost_host(topo), rightmost_host(topo)
    _, _, events = _resolve_scenario(config, bundle, src, dst)
    return config.with_events(
        tuple((e.at, e.a, e.b, e.restore_at) for e in events)
    )
