"""The link hop keeps its events: packet-side schedule pins.

One hop — ``send_control``/``forward`` -> ``Channel.enqueue`` ->
``_serialized`` / ``_deliver`` -> ``receive`` -> ``on_control_packet`` ->
``_process_lsas`` -> ``_flood`` — is nearly every event of a trial, and the
work on it since has been about what a hop *costs*, never which events it
posts.  These tests hold that line in tier-1 (perfbench's traced run holds
it at full size): every number below was recorded at commit c2370aa,
before the hop was touched, and a change that adds, drops or reorders a
hop event moves at least one of them.

The fluid twin is ``test_fig6_cell_schedule_is_pinned`` in
``test_flow_incremental.py``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.core import rewire_fat_tree_prototype
from repro.experiments import partition_aggregate as fig6
from repro.experiments import recovery
from repro.experiments.partition_aggregate import PartitionAggregateConfig
from repro.obs import Observability
from repro.sim.units import milliseconds, seconds

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _capture_bundles(monkeypatch, module):
    """Every bundle ``module`` builds from here on (the experiment
    entry points return results, not the network they ran on)."""
    bundles = []
    build = module.build_bundle

    def capturing(*args, **kwargs):
        bundle = build(*args, **kwargs)
        bundles.append(bundle)
        return bundle

    monkeypatch.setattr(module, "build_bundle", capturing)
    return bundles


def hop_counts(bundle):
    """What the hop did, summed over the fabric."""
    channels = [
        channel
        for link in bundle.network.links
        for channel in (link.channel_ab, link.channel_ba)
    ]
    counts = {
        "events_processed": bundle.sim.events_processed,
        "lsas_flooded": sum(p.stats.lsas_flooded for p in bundle.protocols.values()),
        "lsas_accepted": sum(p.stats.lsas_accepted for p in bundle.protocols.values()),
        "max_queue_depth": max(c.stats.max_queue_depth for c in channels),
        "drops": dict(sorted(bundle.network.drop_summary().items())),
    }
    for field in ("sent", "delivered", "dropped_queue", "dropped_down", "busy_ns"):
        counts[field] = sum(getattr(c.stats, field) for c in channels)
    return counts


def test_fig6_packet_cell_schedule_is_pinned(monkeypatch):
    """The seeded fat-tree k=4 cell of the fluid pin, on the packet
    backend: TCP under ~40 link failures, cold-start flood included."""
    bundles = _capture_bundles(monkeypatch, fig6)
    config = PartitionAggregateConfig(
        duration=seconds(4), n_requests=10, n_background_flows=5,
        ports=4, seed=3,
    )
    result = fig6.run_partition_aggregate("fat-tree", config)
    (bundle,) = bundles
    assert result.n_failures == 40
    assert hop_counts(bundle) == {
        "events_processed": 28295,
        "lsas_flooded": 4932,
        "lsas_accepted": 2204,
        "sent": 11558,
        "delivered": 11485,
        "dropped_queue": 0,
        "dropped_down": 73,
        "busy_ns": 30383648,
        "max_queue_depth": 39,
        "drops": {"no_route": 4},
    }


def _run_traced_prototype_recovery():
    """perfbench's warm-up trial, traced: a 0.5 s UDP flow across the
    4-port rewired prototype with its downward rack link failing."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        bundles = _capture_bundles(monkeypatch, recovery)
        obs = Observability(enabled=True, capacity=0)
        topology, _plan = rewire_fat_tree_prototype()
        result = recovery.run_recovery(
            topology, "udp", flow_duration=milliseconds(500),
            drain=milliseconds(100), obs=obs,
        )
    (bundle,) = bundles
    return result, bundle, obs


@pytest.fixture(scope="module")
def traced_prototype_recovery():
    return _run_traced_prototype_recovery()


def test_prototype_recovery_schedule_is_pinned(traced_prototype_recovery):
    result, bundle, _obs = traced_prototype_recovery
    assert (result.packets_sent, result.packets_received) == (5000, 4400)
    assert hop_counts(bundle) == {
        "events_processed": 65392,
        "lsas_flooded": 518,
        "lsas_accepted": 270,
        "sent": 30518,
        "delivered": 29918,
        "dropped_queue": 0,
        "dropped_down": 600,
        "busy_ns": 353297280,
        "max_queue_depth": 4,
        "drops": {},
    }


def test_prototype_recovery_observability_equals_recorded(traced_prototype_recovery):
    """Flooding resolves its counters once and guards its emit; what a
    traced run *records* — every metric series and every trace event, in
    order — is what the name-per-call code recorded.

    Regenerate (only for a change that is meant to move the trace)::

        PYTHONPATH=src python tests/test_link_hop.py
    """
    _result, _bundle, obs = traced_prototype_recovery
    assert _recorded(obs) == json.loads(
        (GOLDEN / "prototype_recovery_obs.json").read_text()
    )


def _recorded(obs):
    lines = [event.to_json() for event in obs.trace]
    kinds: dict = {}
    for event in obs.trace:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    return {
        "metrics": json.loads(json.dumps(obs.metrics.snapshot())),
        "trace": {
            "events": len(lines),
            "kinds": dict(sorted(kinds.items())),
            "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        },
    }


if __name__ == "__main__":  # regenerate the golden file
    _result, _bundle, _obs = _run_traced_prototype_recovery()
    (GOLDEN / "prototype_recovery_obs.json").write_text(
        json.dumps(_recorded(_obs), indent=2, sort_keys=True) + "\n"
    )
