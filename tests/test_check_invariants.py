"""The invariant checker itself: configs, generator, executor, engine audit."""

from __future__ import annotations

import pytest

from repro.check import (
    CheckedSimulator,
    InvariantSuite,
    TrialConfig,
    canonical_violations,
    execute_check,
    generate_config,
    quiescence_bound,
)
from repro.check.config import ConfigError, fast_overrides, scenario_labels
from repro.check.execute import CheckEnv, concretize
from repro.core.backup_routes import backup_prefix_chain, ring_neighbors_of
from repro.core.f2tree import f2tree
from repro.dataplane.params import NetworkParams
from repro.experiments.common import build_bundle, leftmost_host, rightmost_host
from repro.net.fib import FibEntry
from repro.net.forwarding import LOOP, scan
from repro.net.ip import Prefix
from repro.sim.units import milliseconds, seconds
from repro.topology.graph import NodeKind


class TestTrialConfig:
    def test_roundtrips_through_json_dict(self):
        config = generate_config(7)
        assert TrialConfig.from_dict(config.to_dict()) == config
        assert (
            TrialConfig.from_dict(config.to_dict()).canonical_json()
            == config.canonical_json()
        )

    def test_rejects_inconsistent_profiles(self):
        with pytest.raises(ConfigError):
            TrialConfig("f2tree", 6, profile="scenario")  # no label
        with pytest.raises(ConfigError):
            TrialConfig("f2tree", 6, scenario="C1")  # events profile + label
        with pytest.raises(ConfigError):
            TrialConfig("f2tree", 6, profile="chaos")

    def test_rejects_bad_event_times(self):
        with pytest.raises(ConfigError):
            TrialConfig(
                "f2tree", 6, events=((1, "a", "b", None),),
                warmup=seconds(1),
            )
        with pytest.raises(ConfigError):
            TrialConfig(
                "f2tree", 6,
                events=((seconds(2), "a", "b", seconds(2)),),
                warmup=seconds(1),
            )

    def test_params_applies_overrides(self):
        config = TrialConfig(
            "f2tree", 6, overrides=(("detection_delay", milliseconds(7)),)
        )
        assert config.params().detection_delay == milliseconds(7)
        assert config.params().spf_hold == NetworkParams().spf_hold


class TestGenerator:
    def test_same_seed_same_config(self):
        for seed in range(1, 12):
            assert generate_config(seed) == generate_config(seed)

    def test_different_seeds_differ_somewhere(self):
        configs = {generate_config(seed).canonical_json() for seed in range(1, 25)}
        assert len(configs) > 10

    def test_event_times_land_on_distinct_grid_slots(self):
        for seed in range(1, 40):
            config = generate_config(seed)
            times = [at for at, _, _, _ in config.events]
            times += [r for _, _, _, r in config.events if r is not None]
            assert len(times) == len(set(times))
            for t in times:
                assert (t - config.warmup) % milliseconds(100) == 0

    def test_scenario_labels_respect_ring_size(self):
        assert "C4" not in scenario_labels("fat-tree", 4)
        assert "C4" in scenario_labels("fat-tree", 6)
        assert "C6" not in scenario_labels("fat-tree", 6)
        assert "C7" in scenario_labels("f2tree", 6)
        assert scenario_labels("leaf-spine", 4) == ()


class TestFindCycles:
    """The shared forwarding scan, as the invariant suite drives it: every
    switch with a live match is a root, in sorted order."""

    def _entry(self):
        return FibEntry(Prefix("10.0.0.0/24"), ("x",), source="test")

    def _loops(self, edges, delivers=frozenset()):
        return [
            defect for defect in scan(edges.get, sorted(edges), delivers)
            if defect.kind == LOOP
        ]

    def test_detects_two_node_cycle(self):
        e = self._entry()
        edges = {"a": [("b", e)], "b": [("a", e)]}
        cycles = self._loops(edges)
        assert len(cycles) == 1
        assert cycles[0].nodes == ("a", "b")
        assert cycles[0].cycle == (("a", "b", e), ("b", "a", e))

    def test_dag_is_cycle_free(self):
        e = self._entry()
        edges = {"a": [("b", e), ("c", e)], "b": [("c", e)], "c": []}
        assert self._loops(edges, delivers={"c"}) == []
        assert list(scan(edges.get, sorted(edges), {"c"})) == []

    def test_self_loop(self):
        e = self._entry()
        (loop,) = self._loops({"a": [("a", e)]})
        assert loop.cycle == (("a", "a", e),)

    def test_cycle_behind_a_tail(self):
        e = self._entry()
        edges = {"t": [("a", e)], "a": [("b", e)], "b": [("a", e)]}
        cycles = self._loops(edges)
        assert len(cycles) == 1
        assert set(cycles[0].nodes) == {"a", "b"}


class TestRingPreferenceInTransientCycles:
    def test_static_edge_off_the_ring_is_flagged(self):
        """A convergence-time cycle through a static edge that leaves the
        ring is a loop-freedom violation even when every ring neighbor is
        dead: the fall-through rule only ever takes ring neighbors."""
        topo = f2tree(6)
        bundle = build_bundle(topo)
        bundle.converge()
        network = bundle.network
        agg = topo.pod_members(NodeKind.AGG, 0)[0].name
        tor = topo.tors()[0].name
        core = next(
            peer for peer in topo.neighbors(agg)
            if topo.node(peer).kind is NodeKind.CORE
        )
        ring = ring_neighbors_of(topo, agg)
        # frozen data plane: the agg loses its rack and both ring
        # neighbors, then falls through to a static pointing up at a core
        # whose routed entry for the rack points straight back
        for peer in (tor, *ring.ordered):
            for link in network.links_between(agg, peer):
                link.channel_ab.set_up(False)
                link.channel_ba.set_up(False)
                link.force_detection(False)
        network.switch(agg).fib.install(
            FibEntry(backup_prefix_chain(3)[2], (core,), source="static")
        )
        suite = InvariantSuite(CheckEnv(
            config=TrialConfig("f2tree", 6), topo=topo, network=network,
            protocols=bundle.protocols, sim=bundle.sim,
            src=leftmost_host(topo), dst=rightmost_host(topo),
        ))
        suite.check_loop_freedom_during()
        assert [v.detail for v in suite.violations] == [
            "transient cycle with unjustified static edge(s) "
            f"[('{agg}', '{core}')] through ['{agg}', '{core}']"
        ]


class TestQuiescenceBound:
    def test_covers_every_phase(self):
        params = NetworkParams()
        bound = quiescence_bound(params)
        assert bound > (
            params.detection_delay
            + params.spf_initial_delay
            + params.spf_hold_max
            + params.fib_update_delay
        )

    def test_uses_slower_of_the_detection_delays(self):
        fast = NetworkParams().with_overrides(
            detection_delay=milliseconds(1), up_detection_delay=milliseconds(9)
        )
        slow = NetworkParams().with_overrides(
            detection_delay=milliseconds(9), up_detection_delay=milliseconds(9)
        )
        assert quiescence_bound(fast) == quiescence_bound(slow)


class TestCheckedSimulator:
    def test_runs_events_in_order_with_clean_audit(self):
        sim = CheckedSimulator()
        fired = []
        sim.schedule_at(100, lambda: fired.append("b"))
        sim.schedule_at(50, lambda: fired.append("a"))
        sim.run(until=200)
        assert fired == ["a", "b"]
        assert sim.timing_violations == []

    def test_wrapped_callbacks_keep_their_arguments(self):
        sim = CheckedSimulator()
        seen = []
        sim.schedule_at(10, lambda x, y: seen.append((x, y)), 1, 2)
        sim.run(until=20)
        assert seen == [(1, 2)]

    def test_handle_free_events_are_audited(self):
        """``call_at`` posts most of a trial's events (every link hop);
        one that fires off-schedule must reach ``timing_violations``."""
        sim = CheckedSimulator()
        seen = []
        sim.call_at(10, seen.append, "on time")
        sim.call_at(20, seen.append, "late")
        sim.run(until=15)
        assert seen == ["on time"] and sim.timing_violations == []
        (entry,) = sim._queue
        entry[0] = 25  # an engine bug: the event's time moves under it
        sim.run(until=30)
        assert seen == ["on time", "late"]
        ((scheduled, fired, what),) = sim.timing_violations
        assert (scheduled, fired) == (20, 25) and "fired off-schedule" in what


class TestExecuteCheck:
    def test_healthy_scenario_run_is_violation_free(self):
        config = TrialConfig(
            "f2tree", 6, profile="scenario", scenario="C1",
            overrides=fast_overrides(), warmup=milliseconds(500),
        )
        outcome = execute_check(config)
        assert outcome.violations == []
        # every invariant family actually ran
        assert set(outcome.stats["checks"]) == {
            "loop-freedom", "frr-window", "blackhole-bound",
            "fib-consistency", "convergence-agreement", "sim-sanity",
        }
        assert outcome.stats["probes_received"] > 0

    def test_c7_pingpong_is_accepted_not_flagged(self):
        """Condition 4 (the C7 pattern) drops traffic by design; the
        checker must treat it as expected behaviour, not a violation."""
        config = TrialConfig(
            "f2tree", 6, profile="scenario", scenario="C7",
            overrides=fast_overrides(), warmup=milliseconds(500),
        )
        outcome = execute_check(config)
        assert outcome.violations == []

    @pytest.mark.parametrize("seed", [11, 23, 35, 47])
    def test_generated_trials_are_clean_and_deterministic(self, seed):
        config = generate_config(seed)
        first = execute_check(config)
        second = execute_check(config)
        assert first.violations == []
        assert canonical_violations(first.violations) == canonical_violations(
            second.violations
        )
        assert first.stats == second.stats

    def test_concretize_pins_the_scenario_as_events(self):
        config = TrialConfig(
            "f2tree", 6, profile="scenario", scenario="C4",
            overrides=fast_overrides(), warmup=milliseconds(500),
        )
        concrete = concretize(config)
        assert concrete.profile == "events"
        assert concrete.scenario is None
        assert len(concrete.events) == 2  # C4 fails two downward links
        assert concretize(concrete) is concrete
        # the concrete run reproduces the scenario's (clean) outcome
        assert execute_check(concrete).violations == []

    def test_events_profile_with_restore_stays_clean(self):
        from dataclasses import replace

        from repro.check.config import build_topology
        from repro.failures.injector import fabric_links

        config = TrialConfig(
            "fat-tree", 4, overrides=fast_overrides(), warmup=milliseconds(500),
        )
        a, b = fabric_links(build_topology(config))[0]
        config = replace(
            config, events=((milliseconds(600), a, b, milliseconds(900)),)
        )
        outcome = execute_check(config)
        assert outcome.violations == []
        assert outcome.stats["n_events"] == 1
