"""Integration: the C1-C7 condition experiments (Table IV / Fig 4 / Fig 5).

For every condition the *simulated* outcome must match the *analytical*
classification: fast reroute succeeds exactly for conditions 1-3, the
outage equals the detection delay there, and the rerouted path is longer
by exactly the predicted number of hops.
"""

from __future__ import annotations

import pytest

from repro.dataplane.network import Network
from repro.dataplane.params import NetworkParams
from repro.experiments.conditions import conditions_topology, run_condition
from repro.experiments.recovery import reroute_delay_microseconds
from repro.failures.scenarios import build_scenario
from repro.sim.units import milliseconds, seconds

FAST = dict(flow_duration=seconds(1.5), drain=milliseconds(500))


@pytest.fixture(scope="module")
def f2_runs():
    return {
        label: run_condition("f2tree", label, "udp", **FAST)
        for label in ("C1", "C2", "C3", "C4", "C5", "C6", "C7")
    }


@pytest.fixture(scope="module")
def fat_runs():
    return {
        label: run_condition("fat-tree", label, "udp", **FAST)
        for label in ("C1", "C4", "C5")
    }


class TestF2TreeConditions:
    @pytest.mark.parametrize("label", ["C1", "C2", "C3", "C4", "C5", "C6"])
    def test_fast_reroute_caps_outage_at_detection(self, f2_runs, label):
        result = f2_runs[label].result
        assert milliseconds(55) < result.connectivity_loss < milliseconds(75), label

    def test_c7_degrades_to_fat_tree(self, f2_runs):
        """Fig 4: the condition-4 scenario waits for the control plane."""
        result = f2_runs["C7"].result
        assert result.connectivity_loss > milliseconds(200)

    @pytest.mark.parametrize("label", ["C1", "C2", "C3", "C4", "C5", "C6", "C7"])
    def test_simulation_agrees_with_classifier(self, f2_runs, label):
        run = f2_runs[label]
        assert run.analysis is not None
        assert run.analysis.condition is run.scenario.expected_condition
        assert run.fast_rerouted == run.analysis.fast_reroute_succeeds

    @pytest.mark.parametrize("label,extra", [("C1", 1), ("C4", 2), ("C5", 3), ("C6", 1)])
    def test_reroute_path_length_matches_prediction(self, f2_runs, label, extra):
        """The traced mid-outage path is longer by the predicted hops."""
        run = f2_runs[label]
        during, ok = run.result.path_during
        assert ok, label
        assert len(during) == len(run.result.path_before) + extra, label

    @pytest.mark.parametrize("label,extra", [("C1", 1), ("C4", 2), ("C5", 3)])
    def test_delay_bump_is_17us_per_extra_hop(self, f2_runs, label, extra):
        """Fig 5: each extra hop adds 17 us (12 us tx + 5 us propagation)."""
        before, during, after = reroute_delay_microseconds(f2_runs[label].result)
        assert during == pytest.approx(before + 17 * extra, abs=4), label
        assert after == pytest.approx(before, abs=4), label

    def test_c7_ping_pong_visible_in_trace(self, f2_runs):
        """§II-C condition 4: packets bounce on the ring (trace loops)."""
        during, ok = f2_runs["C7"].result.path_during
        assert not ok
        assert len(during) > 20  # walked the bounce until the hop bound

    def test_c6_reroutes_leftward(self, f2_runs):
        run = f2_runs["C6"]
        during, ok = run.result.path_during
        assert ok
        assert run.analysis.egress in during


class TestFatTreeConditions:
    @pytest.mark.parametrize("label", ["C1", "C4", "C5"])
    def test_fat_tree_waits_for_control_plane(self, fat_runs, label):
        result = fat_runs[label].result
        assert result.connectivity_loss > milliseconds(250), label

    def test_f2tree_beats_fat_tree_by_over_70_percent(self, fat_runs, f2_runs):
        """The paper's headline 78% recovery-time reduction (C1)."""
        fat = fat_runs["C1"].result.connectivity_loss
        f2 = f2_runs["C1"].result.connectivity_loss
        assert 1 - f2 / fat > 0.7

    def test_across_scenarios_rejected_on_fat_tree(self):
        with pytest.raises(ValueError):
            run_condition("fat-tree", "C6", "udp")


class TestScenarioPlanning:
    """The scenario is planned on the trial's own network: against the
    path the measured flow takes there, under the caller's parameters —
    not on a throwaway default-parameter network converged beforehand."""

    @pytest.mark.parametrize(
        "kind,label,transport",
        [("f2tree", "C1", "udp"), ("f2tree", "C4", "tcp"), ("fat-tree", "C1", "udp")],
    )
    def test_one_network_per_run(self, monkeypatch, kind, label, transport):
        built = []
        init = Network.__init__

        def counting_init(self, topology, sim=None, params=None, plan=None):
            built.append(params)
            init(self, topology, sim, params, plan)

        monkeypatch.setattr(Network, "__init__", counting_init)
        params = NetworkParams(lsa_size_bytes=128)
        run = run_condition(
            kind, label, transport, params=params, seed=5,
            flow_duration=milliseconds(500), drain=milliseconds(100),
        )
        assert built == [params]
        assert run.result.transport == transport
        assert set(run.result.failed_links) == set(run.scenario.failed)

    @pytest.mark.parametrize("label", ["C1", "C2", "C3", "C4", "C5", "C6", "C7"])
    def test_f2tree_scenario_follows_the_measured_path(self, f2_runs, label):
        self._check(f2_runs[label], "f2tree", label)

    @pytest.mark.parametrize("label", ["C1", "C4", "C5"])
    def test_fat_tree_scenario_follows_the_measured_path(self, fat_runs, label):
        self._check(fat_runs[label], "fat-tree", label)

    @staticmethod
    def _check(run, kind, label):
        planned = build_scenario(
            label, conditions_topology(kind), run.result.path_before
        )
        assert run.scenario == planned
        assert run.result.failed_links == tuple(planned.failed)
