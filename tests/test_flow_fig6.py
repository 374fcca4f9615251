"""The fluid Fig 6 carriers: traffic identity, FCT semantics, trial kind.

Both backends carry the one drawn traffic (same seed => same request
schedule, requester/worker picks and background transfers), the fluid
carrier completes every request on a healthy fabric well inside the
deadline, and its FCT tail surfaces through the ``flow-fig6`` campaign
trial kind.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.campaign.spec import TrialContext, trial_runner
from repro.campaign.telemetry import QUANTILES, percentile
from repro.dataplane.params import NetworkParams
from repro.experiments.common import DEFAULT_WARMUP, build_bundle
from repro.experiments.partition_aggregate import (
    PartitionAggregateConfig,
    run_flow_partition_aggregate,
    run_partition_aggregate,
)
from repro.metrics.requests import DEFAULT_DEADLINE
from repro.obs import Observability
from repro.sim.flow.model import FluidTrafficModel
from repro.sim.randomness import RandomStreams
from repro.sim.units import milliseconds, seconds
from repro.topology.fattree import fat_tree
from repro.workloads.background import BackgroundTraffic
from repro.workloads.flow_partition_aggregate import (
    FlowBackgroundTraffic,
    FlowPartitionAggregateWorkload,
)
from repro.workloads.partition_aggregate import PartitionAggregateWorkload


def _flow_bundle(seed: int = 7):
    bundle = build_bundle(
        fat_tree(4),
        params=NetworkParams().with_overrides(backend="flow"),
        seed=seed,
    )
    bundle.converge(DEFAULT_WARMUP)
    assert isinstance(bundle.flow_model, FluidTrafficModel)
    return bundle, bundle.flow_model


def _record_launches(monkeypatch, driver_class, log):
    """Log ``(at, requester, workers)`` of every request the driver
    launches, then let it carry the request as usual."""
    launch = driver_class._launch_request

    def recording(self, request):
        log.append((
            request.at,
            request.requester.name,
            tuple(worker.name for worker in request.workers),
        ))
        launch(self, request)

    monkeypatch.setattr(driver_class, "_launch_request", recording)


def test_request_draws_mirror_packet_twin(monkeypatch):
    """Same seed => both carriers launch the identical requests (time,
    requester, workers) and background transfers (endpoints, size,
    start) — compared by value, as launched."""
    seed, n_requests, n_flows, horizon = 11, 6, 5, seconds(1)
    packet_requests, fluid_requests = [], []
    _record_launches(monkeypatch, PartitionAggregateWorkload, packet_requests)
    _record_launches(monkeypatch, FlowPartitionAggregateWorkload, fluid_requests)

    packet = build_bundle(fat_tree(4), seed=seed)
    packet.converge(DEFAULT_WARMUP)
    packet_wl = PartitionAggregateWorkload(
        packet.network, packet.streams, n_requests=n_requests
    )
    packet_bg = BackgroundTraffic(packet.network, packet.streams)
    packet_wl.schedule(DEFAULT_WARMUP, horizon)
    packet_bg.schedule(n_flows, DEFAULT_WARMUP, horizon)

    fluid, model = _flow_bundle(seed=seed)
    fluid_wl = FlowPartitionAggregateWorkload(
        fluid.network, model, fluid.streams, n_requests=n_requests
    )
    fluid_bg = FlowBackgroundTraffic(fluid.network, model, fluid.streams)
    fluid_wl.schedule(DEFAULT_WARMUP, horizon)
    fluid_bg.schedule(n_flows, DEFAULT_WARMUP, horizon)

    end = DEFAULT_WARMUP + horizon + seconds(1)
    packet.sim.run(until=end)
    fluid.sim.run(until=end)

    assert len(packet_requests) == n_requests
    assert fluid_requests == packet_requests
    assert [r.started_at for r in fluid_wl.stats.records] == [
        at for at, _, _ in packet_requests
    ]

    def transfers(background):
        return [(f.src, f.dst, f.size_bytes, f.started_at) for f in background.flows]

    assert len(packet_bg.flows) == n_flows
    assert transfers(fluid_bg) == transfers(packet_bg)


def test_flow_wrapper_is_the_one_runner_on_flow_params():
    """``run_flow_partition_aggregate`` is ``run_partition_aggregate`` on
    ``backend="flow"`` params: every result field equal."""
    config = PartitionAggregateConfig(
        duration=seconds(4), n_requests=10, n_background_flows=5,
        ports=4, seed=3,
    )
    wrapped = run_flow_partition_aggregate("fat-tree", config)
    direct = run_partition_aggregate(
        "fat-tree", config, NetworkParams().with_overrides(backend="flow")
    )
    assert wrapped.backend_stats  # the fluid tail ran
    for f in fields(wrapped):
        assert getattr(wrapped, f.name) == getattr(direct, f.name), f.name


def test_healthy_fabric_completes_inside_deadline():
    """No failures: every request's slowest fan-out response still lands
    orders of magnitude under the 250 ms deadline."""
    bundle, model = _flow_bundle()
    workload = FlowPartitionAggregateWorkload(
        bundle.network, model, bundle.streams, n_requests=5
    )
    background = FlowBackgroundTraffic(
        bundle.network, model, bundle.streams
    )
    workload.schedule(DEFAULT_WARMUP, seconds(1))
    background.schedule(4, DEFAULT_WARMUP, seconds(1))
    end = DEFAULT_WARMUP + seconds(2)
    bundle.sim.run(until=end)
    model.finalize()
    workload.collect()
    background.collect()
    workload.stats.censored_at = end

    assert workload.stats.total == 5
    assert all(r.completed_at is not None for r in workload.stats.records)
    times = workload.stats.completion_times()
    assert max(times) < milliseconds(10)
    assert workload.stats.deadline_miss_ratio(DEFAULT_DEADLINE) == 0.0
    assert background.completed == len(background.flows) == 4
    assert all(f.size_bytes >= 1448 for f in background.flows)


def test_flow_fig6_experiment_cell():
    """One experiment-level cell under random failures: every request is
    accounted for (completed or censored) and the tail is monotone."""
    config = PartitionAggregateConfig(
        duration=seconds(4), n_requests=10, n_background_flows=5,
        ports=4, seed=3,
    )
    result = run_flow_partition_aggregate("fat-tree", config)
    assert result.stats.total == 10
    assert result.stats.censored_at is not None
    assert result.background_total == 5
    assert result.backend_stats["flows"] == 10 * 8 + 5
    assert 0.0 <= result.deadline_miss_ratio <= 1.0
    times = sorted(result.stats.completion_times())
    p50, p95, p99 = (percentile(times, q) for q in QUANTILES)
    assert p50 <= p95 <= p99


def test_flow_fig6_trial_kind():
    """The registered campaign kind reports the FCT tail at the
    telemetry quantiles."""
    runner = trial_runner("flow-fig6")
    ctx = TrialContext(seed=5, streams=RandomStreams(5), obs=Observability())
    payload = runner(
        ctx, topology="fat-tree", ports=4, duration_s=4.0,
        n_requests=8, n_background_flows=4,
    )
    assert payload["requests"] == 8
    assert 0 <= payload["completed"] <= 8
    assert 0.0 <= payload["deadline_miss_ratio"] <= 1.0
    quantile_keys = [f"fct_p{q}_ms" for q in QUANTILES]
    assert all(k in payload for k in quantile_keys)
    p50, p95, p99 = (payload[k] for k in quantile_keys)
    assert p50 <= p95 <= p99
    # the model's own counters ride along, keys sorted, so a report can
    # show recomputes / solves / cache hit ratio per cell
    stats = payload["backend_stats"]
    assert list(stats) == sorted(stats)
    assert stats["flows"] == 8 * 8 + 4
    assert 0 < stats["full_solves"] <= stats["recomputes"]
    assert stats["path_cache_hits"] > stats["path_resolutions"] > 0


def test_flow_fig6_trial_kind_without_background_traffic():
    """A "no background traffic" cell is an ablation, not a crash."""
    runner = trial_runner("flow-fig6")
    ctx = TrialContext(seed=5, streams=RandomStreams(5), obs=Observability())
    payload = runner(
        ctx, topology="fat-tree", ports=4, duration_s=2.0,
        n_requests=4, n_background_flows=0,
    )
    assert payload["requests"] == 4
    assert payload["background_total"] == payload["background_completed"] == 0
    assert payload["backend_stats"]["flows"] == 4 * 8


def test_flow_fig6_trial_kind_rejects_a_negative_count():
    runner = trial_runner("flow-fig6")
    ctx = TrialContext(seed=5, streams=RandomStreams(5), obs=Observability())
    with pytest.raises(ValueError, match="launch count"):
        runner(
            ctx, topology="fat-tree", ports=4, duration_s=2.0,
            n_requests=4, n_background_flows=-1,
        )
