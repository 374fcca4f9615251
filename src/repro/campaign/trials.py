"""Built-in trial kinds: the paper's experiments as campaign trials.

Each kind wraps one existing ``run_*`` entry point with a declarative,
JSON-safe parameterization.  Network-parameter overrides travel as
``net_<field>`` spec parameters (the flattened fields of
:class:`~repro.dataplane.params.NetworkParams`), so a spec fully pins the
trial and the report echoes the exact configuration that produced each
number.

Kinds
-----
``recovery``
    One single-flow recovery run (:func:`repro.experiments.recovery.run_recovery`)
    on a named topology, optionally under a Table IV scenario label.
``condition``
    One Fig 4 cell — a UDP and a TCP run of a Table IV condition on one
    topology (:func:`repro.experiments.conditions.run_condition`).
``congestion``
    One load level of the backup-path congestion probe
    (:func:`repro.experiments.congestion.run_reroute_congestion`).
``flow-fig6``
    One Fig 6 cell on the fluid backend
    (:func:`repro.experiments.partition_aggregate.run_flow_partition_aggregate`):
    partition-aggregate requests as reliable fluid flows under random
    failures, reporting the deadline-miss ratio and the FCT
    p50/p95/p99 tail (the :data:`repro.campaign.telemetry.QUANTILES`
    convention).
``check``
    One fuzzed invariant-check trial (:mod:`repro.check`): the trial's
    seed fully determines the generated configuration, so a campaign of
    ``check`` trials is a reproducible fuzzing run.
``verify``
    One static verification of a built topology (:mod:`repro.verify`):
    no simulation — the payload is the verdict plus per-check finding
    and state counts, so a grid of topologies can be proven in parallel.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Optional, Tuple

from ..dataplane.params import NetworkParams
from ..sim.units import microseconds, to_milliseconds
from .spec import CampaignError, TrialContext, register_trial

#: spec-parameter prefix for flattened NetworkParams overrides
NET_PREFIX = "net_"

_NET_FIELDS = frozenset(asdict(NetworkParams()))


def network_params_to_spec(params: Optional[NetworkParams]) -> Dict[str, Any]:
    """Flatten a NetworkParams into ``net_*`` spec parameters."""
    if params is None:
        return {}
    return {f"{NET_PREFIX}{k}": v for k, v in asdict(params).items()}


def split_network_params(
    params: Dict[str, Any],
) -> Tuple[Optional[NetworkParams], Dict[str, Any]]:
    """Split ``net_*`` overrides out of a spec's parameter dict.

    Returns ``(NetworkParams or None, remaining params)``; unknown
    ``net_*`` field names raise so typos fail loudly instead of silently
    running with paper defaults.
    """
    overrides: Dict[str, Any] = {}
    rest: Dict[str, Any] = {}
    for key, value in params.items():
        if key.startswith(NET_PREFIX):
            name = key[len(NET_PREFIX):]
            if name not in _NET_FIELDS:
                raise CampaignError(f"unknown NetworkParams field {name!r}")
            overrides[name] = value
        else:
            rest[key] = value
    network = NetworkParams().with_overrides(**overrides) if overrides else None
    return network, rest


@register_trial("recovery")
def run_recovery_trial(
    ctx: TrialContext,
    topology: str = "f2tree",
    ports: int = 8,
    transport: str = "udp",
    scenario: Optional[str] = None,
    routing: str = "linkstate",
    across_ports: int = 2,
    **params: Any,
) -> Dict[str, Any]:
    """One single-flow recovery run; the campaign's workhorse kind."""
    from ..core.fabrics import build_fabric
    from ..experiments.recovery import run_recovery

    network_params, rest = split_network_params(params)
    if rest:
        raise CampaignError(f"unknown recovery trial parameters: {sorted(rest)}")
    result = run_recovery(
        build_fabric(topology, ports, across_ports),
        transport,
        scenario_label=scenario,
        params=network_params,
        seed=ctx.seed,
        routing=routing,
        obs=ctx.obs,
    )
    payload: Dict[str, Any] = {
        "topology": result.topology,
        "transport": transport,
        "packets_lost": result.packets_lost,
    }
    if result.connectivity_loss is not None:
        payload["connectivity_loss_ms"] = to_milliseconds(result.connectivity_loss)
    if result.collapse_duration is not None:
        payload["collapse_ms"] = to_milliseconds(result.collapse_duration)
    return payload


@register_trial("condition")
def run_condition_trial(
    ctx: TrialContext,
    label: str = "C1",
    topology: str = "f2tree",
    ports: int = 8,
    across_ports: int = 2,
    **params: Any,
) -> Dict[str, Any]:
    """One Fig 4 cell: UDP loss + packet count and TCP collapse for one
    (condition, topology) pair."""
    from ..experiments.conditions import run_condition

    network_params, rest = split_network_params(params)
    if rest:
        raise CampaignError(f"unknown condition trial parameters: {sorted(rest)}")
    udp = run_condition(
        topology, label, "udp", ports, across_ports=across_ports,
        params=network_params, seed=ctx.seed, obs=ctx.obs,
    )
    tcp = run_condition(
        topology, label, "tcp", ports, across_ports=across_ports,
        params=network_params, seed=ctx.seed, obs=ctx.obs,
    )
    if udp.result.connectivity_loss is None:
        raise CampaignError(
            f"condition {label}/{topology}: UDP run has no loss metric"
        )
    if tcp.result.collapse_duration is None:
        raise CampaignError(
            f"condition {label}/{topology}: TCP run has no collapse metric"
        )
    return {
        "label": label,
        "kind": topology,
        "connectivity_loss_ms": to_milliseconds(udp.result.connectivity_loss),
        "packets_lost": udp.result.packets_lost,
        "collapse_ms": to_milliseconds(tcp.result.collapse_duration),
        "fast_rerouted": udp.fast_rerouted,
    }


@register_trial("congestion")
def run_congestion_trial(
    ctx: TrialContext,
    hot_flows: int = 2,
    ports: int = 8,
    per_flow_interval_us: float = 50.0,
    **params: Any,
) -> Dict[str, Any]:
    """One load level of the backup-path congestion probe."""
    from ..experiments.congestion import run_reroute_congestion

    network_params, rest = split_network_params(params)
    if rest:
        raise CampaignError(f"unknown congestion trial parameters: {sorted(rest)}")
    result = run_reroute_congestion(
        hot_flows,
        per_flow_interval=microseconds(per_flow_interval_us),
        ports=ports,
        seed=ctx.seed,
        params=network_params,
        obs=ctx.obs,
    )
    return {
        "n_hot_flows": result.n_hot_flows,
        "offered_mbps_per_flow": result.offered_mbps_per_flow,
        "reroute_delivery_ratio": result.reroute_delivery_ratio,
        "post_convergence_delivery_ratio": result.post_convergence_delivery_ratio,
        "across_utilization": result.across_utilization,
        "across_queue_drops": result.across_queue_drops,
        "saturated": result.saturated,
    }


@register_trial("flow-fig6")
def run_flow_fig6_trial(
    ctx: TrialContext,
    topology: str = "f2tree",
    ports: int = 8,
    concurrent_failures: int = 1,
    duration_s: float = 10.0,
    n_requests: int = 40,
    n_background_flows: int = 20,
    **params: Any,
) -> Dict[str, Any]:
    """One Fig 6 cell on the fluid backend: deadline-miss ratio plus the
    completion-time tail at the telemetry quantiles (p50/p95/p99)."""
    from ..experiments.partition_aggregate import (
        PartitionAggregateConfig,
        run_flow_partition_aggregate,
    )
    from ..sim.units import seconds
    from .telemetry import QUANTILES, percentile

    network_params, rest = split_network_params(params)
    if rest:
        raise CampaignError(f"unknown flow-fig6 trial parameters: {sorted(rest)}")
    config = PartitionAggregateConfig(
        duration=seconds(duration_s),
        n_requests=n_requests,
        n_background_flows=n_background_flows,
        concurrent_failures=concurrent_failures,
        ports=ports,
        seed=ctx.seed,
    )
    result = run_flow_partition_aggregate(topology, config, network_params)
    payload: Dict[str, Any] = {
        "kind": result.kind,
        "requests": result.stats.total,
        "completed": sum(
            1 for r in result.stats.records if r.completed_at is not None
        ),
        "deadline_miss_ratio": result.deadline_miss_ratio,
        "n_failures": result.n_failures,
        "average_concurrency": result.average_concurrency,
        "background_completed": result.background_completed,
        "background_total": result.background_total,
        # recomputes / solves / path-cache hits per cell, so a report can
        # show them without rerunning
        "backend_stats": dict(sorted(result.backend_stats.items())),
    }
    times = sorted(result.stats.completion_times())
    for q in QUANTILES:
        payload[f"fct_p{q}_ms"] = to_milliseconds(percentile(times, q))
    return payload


@register_trial("check")
def run_check_trial(
    ctx: TrialContext,
    index: int = 0,
    backend: str = "packet",
    **params: Any,
) -> Dict[str, Any]:
    """One fuzzed invariant-check trial.

    ``index`` only differentiates trial ids inside a campaign; the
    drawn configuration is a pure function of the trial seed.
    ``backend`` pins the simulation backend onto the drawn config (the
    same seed fuzzes either data plane).  The payload embeds the full
    config so a violating trial can be shrunk and bundled without
    re-deriving anything.
    """
    from ..check.config import generate_config
    from ..check.execute import execute_check

    if params:
        raise CampaignError(f"unknown check trial parameters: {sorted(params)}")
    config = generate_config(ctx.seed)
    if backend != "packet":
        config = config.with_backend(backend)
    outcome = execute_check(config)
    # the check runs in its own simulator (its own obs facade); copy the
    # deterministic cache counters over so campaign cache hit-rate tables
    # cover check trials too
    caches = outcome.stats.get("caches", {})
    for table, metric in (("spf_cache", "spf.cache"), ("fib_chain", "fib.chain")):
        counts = caches.get(table, {})
        for side in ("hits", "misses"):
            value = int(counts.get(side, 0))
            if value:
                ctx.obs.metrics.counter(f"{metric}.{side}").inc(value)
    return {
        "index": index,
        "topology": config.topology,
        "ports": config.ports,
        "profile": config.profile,
        "scenario": config.scenario,
        "n_events": len(outcome.events),
        "probes_sent": outcome.stats["probes_sent"],
        "probes_received": outcome.stats["probes_received"],
        "checks": outcome.stats["checks"],
        "n_violations": len(outcome.violations),
        "invariants": outcome.invariants_violated,
        "violations": [v.to_dict() for v in outcome.violations],
        "config": config.to_dict(),
    }


@register_trial("diff")
def run_diff_trial(
    ctx: TrialContext,
    index: int = 0,
    tolerance: int = 10,
    **params: Any,
) -> Dict[str, Any]:
    """One cross-backend differential trial: the seed's fuzzed config is
    executed on the packet *and* flow backends and compared
    (:func:`repro.check.differential.run_differential`); a campaign of
    ``diff`` trials is a reproducible backend-agreement fuzzing run."""
    from ..check.config import generate_config
    from ..check.differential import run_differential

    if params:
        raise CampaignError(f"unknown diff trial parameters: {sorted(params)}")
    config = generate_config(ctx.seed)
    result = run_differential(config, tolerance=tolerance)
    return {
        "index": index,
        "topology": config.topology,
        "ports": config.ports,
        "profile": config.profile,
        "scenario": config.scenario,
        "agree": result.ok,
        "disagreement_kinds": list(result.kinds),
        "disagreements": result.disagreements,
        "probes_packet": result.packet.stats["probes_received"],
        "probes_flow": result.flow.stats["probes_received"],
        "invariants": result.packet.invariants_violated,
        "config": config.to_dict(),
    }


@register_trial("verify")
def run_verify_trial(
    ctx: TrialContext,
    topology: str = "f2tree",
    ports: int = 8,
    across_ports: int = 2,
    max_failures: int = 2,
    samples: int = 50,
    tie_break: str = "prefix-length",
    **params: Any,
) -> Dict[str, Any]:
    """One static verification: prove/refute the backup properties of a
    built topology, no simulator.  The payload is deterministic — same
    spec, same verdict, same counts — so verification grids shard
    cleanly across workers."""
    from ..core.fabrics import build_fabric
    from ..topology.graph import TopologyError
    from ..verify import run_verification

    if params:
        raise CampaignError(f"unknown verify trial parameters: {sorted(params)}")
    try:
        topo = build_fabric(topology, ports, across_ports)
    except TopologyError as exc:
        raise CampaignError(str(exc)) from exc
    report = run_verification(
        topo,
        max_failures=max_failures,
        samples=samples,
        seed=ctx.seed,
        tie_break=tie_break,
    )
    return {
        "topology": report.topology,
        "family": report.family,
        "ports": ports,
        "max_failures": report.max_failures,
        "verdict": report.verdict,
        "certified": report.certified,
        "refuted_checks": report.refuted_checks(),
        "n_errors": report.severity_total("error"),
        "n_caveats": report.severity_total("caveat"),
        "totals": dict(sorted(report.totals.items())),
        "stats": report.stats,
    }
