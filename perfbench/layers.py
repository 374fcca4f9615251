"""The layers of ``repro`` as the benchmark sees them: which public
callables the traced run wraps, and the per-layer metrics it reports.

Metric names are ``<module>.<metric>``.  ``LAYER_METRICS`` is the one
list of them; ``BENCHMARK.json``'s ``per_layer`` repeats it and the
smoke test holds the two equal.  perfbench/README.md says which
end-to-end metric each should move, on which workload.
"""

from __future__ import annotations

import gc
from typing import Any, Dict, List, Tuple

from spantrace import Target, Tracer

TARGETS: List[Target] = [
    Target("repro.topology.fattree", "fat_tree"),
    Target("repro.core.f2tree", "f2tree"),
    Target("repro.dataplane.network", "Network.__init__", rss=True, capture=True),
    Target("repro.dataplane.network", "Network.trace_route", hot=True),
    Target("repro.dataplane.node", "SwitchNode.receive", hot=True),
    Target("repro.dataplane.node", "HostNode.receive", hot=True),
    Target("repro.routing.linkstate", "deploy_linkstate", rss=True),
    Target("repro.sim.flow.warmstart", "warm_start_linkstate", rss=True),
    Target("repro.routing.spf_batch", "batch_compute_routes"),
    Target("repro.routing.lsdb", "Lsdb.load"),
    Target("repro.routing.spf_incremental", "IncrementalSpfEngine.compute", hot=True),
    Target("repro.sim.flow.warmstart", "OracleSpfEngine.compute", hot=True),
    Target("repro.routing.linkstate", "LinkStateProtocol.on_control_packet", hot=True),
    Target("repro.net.fib", "Fib.bulk_load", units=lambda fib, entries: len(entries)),
    Target("repro.net.fib", "Fib.apply_delta", hot=True),
    Target("repro.core.backup_routes", "configure_backup_routes"),
    Target("repro.sim.engine", "Simulator.run"),
    Target("repro.sim.engine", "Simulator.run_until"),
    Target("repro.sim.flow.model", "FluidTrafficModel.__init__", capture=True),
    Target("repro.sim.flow.model", "FluidTrafficModel.finalize"),
    Target("repro.sim.flow.fairshare", "max_min_rates"),
    Target("repro.sim.flow.fairshare", "build_incidence"),
    Target("repro.transport.tcp", "TcpConnection.__init__", hot=True, capture=True),
    Target("repro.workloads.partition_aggregate", "PartitionAggregateWorkload.schedule"),
    Target("repro.workloads.background", "BackgroundTraffic.schedule"),
    Target(
        "repro.workloads.flow_partition_aggregate",
        "FlowPartitionAggregateWorkload.schedule",
    ),
    Target(
        "repro.workloads.flow_partition_aggregate",
        "FlowPartitionAggregateWorkload.collect",
    ),
    Target("repro.workloads.flow_partition_aggregate", "FlowBackgroundTraffic.schedule"),
    Target("repro.workloads.flow_partition_aggregate", "FlowBackgroundTraffic.collect"),
    Target("repro.failures.injector", "generate_random_failures"),
    Target(
        "repro.failures.injector", "schedule_failures",
        units=lambda network, events: len(events),
    ),
    Target("repro.metrics.timeseries", "connectivity_loss_duration"),
    Target("repro.metrics.timeseries", "throughput_series"),
    Target("repro.metrics.timeseries", "throughput_collapse_duration"),
]

#: (name, unit, better, repeats exactly for one seed).  A run reports
#: the values of its fastest traced pass; the exact ones are
#: deterministic simulator counters and call counts, and the benchmark
#: fails the run if two traced passes disagree on them.
LAYER_METRICS: List[Tuple[str, str, str, bool]] = [
    ("topology.build_s", "s", "lower", False),
    ("topology.nodes", "count", "lower", True),
    ("topology.links", "count", "lower", True),
    ("dataplane.network_init_s", "s", "lower", False),
    ("dataplane.network_init_rss_mb", "MiB", "lower", False),
    ("dataplane.switch_receive_self_s", "s", "lower", False),
    ("dataplane.switch_receive_calls", "count", "lower", True),
    ("dataplane.trace_route_s", "s", "lower", False),
    ("dataplane.trace_route_calls", "count", "lower", True),
    ("dataplane.drops", "count", "lower", True),
    ("net.fib.bulk_load_s", "s", "lower", False),
    ("net.fib.bulk_load_entries", "count", "lower", True),
    ("net.fib.apply_delta_s", "s", "lower", False),
    ("net.fib.apply_delta_calls", "count", "lower", True),
    ("net.fib.entries_total", "count", "lower", True),
    ("net.fib.chain_hits", "count", "higher", True),
    ("net.fib.chain_misses", "count", "lower", True),
    ("net.fib.chain_hit_ratio", "fraction", "higher", True),
    ("routing.deploy_s", "s", "lower", False),
    ("routing.deploy_rss_mb", "MiB", "lower", False),
    ("routing.lsdb_load_s", "s", "lower", False),
    ("routing.spf_batch_s", "s", "lower", False),
    ("routing.spf_batch_calls", "count", "lower", True),
    ("routing.batch_spf_hits", "count", "higher", True),
    ("routing.spf_compute_s", "s", "lower", False),
    ("routing.spf_runs", "count", "lower", True),
    ("routing.spf_incremental_runs", "count", "higher", True),
    ("routing.spf_full_runs", "count", "lower", True),
    ("routing.spf_nodes_touched", "count", "lower", True),
    ("routing.on_control_s", "s", "lower", False),
    ("routing.on_control_calls", "count", "lower", True),
    ("routing.lsas_flooded", "count", "lower", True),
    ("routing.fib_installs", "count", "lower", True),
    ("core.backup_routes_s", "s", "lower", False),
    ("sim.engine.events", "count", "lower", True),
    ("sim.engine.run_s", "s", "lower", False),
    ("sim.engine.run_self_s", "s", "lower", False),
    ("sim.engine.events_per_s", "1/s", "higher", False),
    ("sim.flow.solve_s", "s", "lower", False),
    ("sim.flow.solve_calls", "count", "lower", True),
    ("sim.flow.incidence_s", "s", "lower", False),
    ("sim.flow.model_init_s", "s", "lower", False),
    ("sim.flow.finalize_s", "s", "lower", False),
    ("sim.flow.flows", "count", "lower", True),
    ("sim.flow.recomputes", "count", "lower", True),
    ("sim.flow.full_solves", "count", "lower", True),
    ("sim.flow.incremental_solves", "count", "higher", True),
    ("sim.flow.incremental_solve_ratio", "fraction", "higher", True),
    ("sim.flow.path_resolutions", "count", "lower", True),
    ("sim.flow.path_cache_hit_ratio", "fraction", "higher", True),
    ("transport.host_receive_self_s", "s", "lower", False),
    ("transport.host_receive_calls", "count", "lower", True),
    ("transport.tcp_segments_retransmitted", "count", "lower", True),
    ("transport.tcp_fast_retransmits", "count", "lower", True),
    ("workloads.schedule_s", "s", "lower", False),
    ("workloads.collect_s", "s", "lower", False),
    ("failures.events", "count", "lower", True),
    ("failures.schedule_s", "s", "lower", False),
    ("metrics.reconstruct_s", "s", "lower", False),
    ("proc.cpu_s", "s", "lower", False),
    ("proc.gc_collections", "count", "lower", False),
    ("trace.spans", "count", "lower", True),
    # fastest traced pass's wall over the run's untraced wall_s
    ("trace.overhead_ratio", "ratio", "lower", False),
]

_MIB_PER_KIB = 1.0 / 1024


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class LayerProbe:
    """Reads the layers from outside for one traced pass: span
    aggregates from the tracer, counts from the simulator's own
    deterministic counters at each trial's end."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.tracer.install(TARGETS)
        self._counts: Dict[str, int] = {}
        self._gc_start = self._gc_collections()

    @staticmethod
    def _gc_collections() -> int:
        return sum(generation["collections"] for generation in gc.get_stats())

    def _add(self, name: str, value: int) -> None:
        self._counts[name] = self._counts.get(name, 0) + value

    def begin_trial(self, trial: str) -> None:
        self.tracer.trial = trial

    def end_trial(self, outputs: Dict[str, Any]) -> None:
        """Sum the counters of everything the trial built, then let go
        of it so a pass's peak memory stays that of its largest trial."""
        captured = self.tracer.captured
        for network in captured["Network.__init__"]:
            self._add("topology.nodes", len(network.topology.nodes))
            self._add("topology.links", len(network.topology.links))
            self._add("dataplane.drops", sum(network.drop_summary().values()))
            self._add("sim.engine.events", network.sim.events_processed)
            for switch in network.switches():
                fib = switch.fib
                self._add("net.fib.entries_total", len(fib))
                self._add("net.fib.chain_hits", fib.chain_hits)
                self._add("net.fib.chain_misses", fib.chain_misses)
                agent = switch.routing_agent
                if agent is None:
                    continue
                stats = agent.stats
                self._add("routing.spf_runs", stats.spf_runs)
                self._add("routing.spf_incremental_runs", stats.spf_incremental_runs)
                self._add("routing.spf_full_runs", stats.spf_full_runs)
                self._add("routing.spf_nodes_touched", stats.spf_nodes_touched)
                self._add("routing.lsas_flooded", stats.lsas_flooded)
                self._add("routing.fib_installs", stats.fib_installs)
        for model in captured["FluidTrafficModel.__init__"]:
            for key, value in model.stats().items():
                self._add(f"sim.flow.{key}", value)
        for connection in captured["TcpConnection.__init__"]:
            self._add(
                "transport.tcp_segments_retransmitted", connection.segments_retransmitted
            )
            self._add("transport.tcp_fast_retransmits", connection.fast_retransmits)
        self._add("routing.batch_spf_hits", outputs.get("batch_spf_hits", 0))
        for instances in captured.values():
            instances.clear()

    def values(self) -> Dict[str, float]:
        """Every per-layer metric but the two the callers own:
        ``proc.cpu_s`` (child.py times the pass) and
        ``trace.overhead_ratio`` (run.py knows the untraced wall)."""
        stats = self.tracer.stats
        count = self._counts.get

        def total(*names: str) -> float:
            return sum(stats[name].total_s for name in names)

        hits, misses = count("net.fib.chain_hits", 0), count("net.fib.chain_misses", 0)
        full = count("sim.flow.full_solves", 0)
        incremental = count("sim.flow.incremental_solves", 0)
        resolutions = count("sim.flow.path_resolutions", 0)
        cache_hits = count("sim.flow.path_cache_hits", 0)
        events = count("sim.engine.events", 0)
        run_s = total("Simulator.run")
        values = {
            "topology.build_s": total("fat_tree", "f2tree"),
            "dataplane.network_init_s": total("Network.__init__"),
            "dataplane.network_init_rss_mb":
                stats["Network.__init__"].rss_kib * _MIB_PER_KIB,
            "dataplane.switch_receive_self_s": stats["SwitchNode.receive"].self_s,
            "dataplane.switch_receive_calls": stats["SwitchNode.receive"].calls,
            "dataplane.trace_route_s": total("Network.trace_route"),
            "dataplane.trace_route_calls": stats["Network.trace_route"].calls,
            "net.fib.bulk_load_s": total("Fib.bulk_load"),
            "net.fib.bulk_load_entries": stats["Fib.bulk_load"].units,
            "net.fib.apply_delta_s": total("Fib.apply_delta"),
            "net.fib.apply_delta_calls": stats["Fib.apply_delta"].calls,
            "net.fib.chain_hit_ratio": _ratio(hits, hits + misses),
            "routing.deploy_s": total("deploy_linkstate", "warm_start_linkstate"),
            "routing.deploy_rss_mb": (
                stats["deploy_linkstate"].rss_kib + stats["warm_start_linkstate"].rss_kib
            ) * _MIB_PER_KIB,
            "routing.lsdb_load_s": total("Lsdb.load"),
            "routing.spf_batch_s": total("batch_compute_routes"),
            "routing.spf_batch_calls": stats["batch_compute_routes"].calls,
            "routing.spf_compute_s": total(
                "IncrementalSpfEngine.compute", "OracleSpfEngine.compute"
            ),
            "routing.on_control_s": total("LinkStateProtocol.on_control_packet"),
            "routing.on_control_calls":
                stats["LinkStateProtocol.on_control_packet"].calls,
            "core.backup_routes_s": total("configure_backup_routes"),
            # run_until() only validates and calls run(): run() has it all
            "sim.engine.run_s": run_s,
            "sim.engine.run_self_s": stats["Simulator.run"].self_s,
            "sim.engine.events_per_s": _ratio(events, run_s),
            "sim.flow.solve_s": total("max_min_rates"),
            "sim.flow.solve_calls": stats["max_min_rates"].calls,
            "sim.flow.incidence_s": total("build_incidence"),
            "sim.flow.model_init_s": total("FluidTrafficModel.__init__"),
            "sim.flow.finalize_s": total("FluidTrafficModel.finalize"),
            "sim.flow.incremental_solve_ratio": _ratio(incremental, full + incremental),
            "sim.flow.path_cache_hit_ratio": _ratio(cache_hits, resolutions + cache_hits),
            "transport.host_receive_self_s": stats["HostNode.receive"].self_s,
            "transport.host_receive_calls": stats["HostNode.receive"].calls,
            "workloads.schedule_s": total(
                "PartitionAggregateWorkload.schedule",
                "BackgroundTraffic.schedule",
                "FlowPartitionAggregateWorkload.schedule",
                "FlowBackgroundTraffic.schedule",
            ),
            "workloads.collect_s": total(
                "FlowPartitionAggregateWorkload.collect", "FlowBackgroundTraffic.collect"
            ),
            "failures.events": stats["schedule_failures"].units,
            "failures.schedule_s": total("generate_random_failures", "schedule_failures"),
            "metrics.reconstruct_s": total(
                "connectivity_loss_duration",
                "throughput_series",
                "throughput_collapse_duration",
            ),
            "proc.gc_collections": self._gc_collections() - self._gc_start,
            "trace.spans": len(self.tracer.closed_spans()),
        }
        for name, _unit, _better, _exact in LAYER_METRICS:
            if name not in values and name not in ("proc.cpu_s", "trace.overhead_ratio"):
                values[name] = count(name, 0)
        return values
