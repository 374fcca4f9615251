"""Tests for configuration generation and the CLI."""

from __future__ import annotations

import pytest

from repro.cli import ARTIFACTS, build_parser, main
from repro.core.configgen import (
    ConfigOptions,
    config_diff,
    render_fabric_configs,
    render_switch_config,
)
from repro.core.f2tree import f2tree, rewire_fat_tree_prototype
from repro.topology.addressing import assign_addresses
from repro.topology.fattree import fat_tree
from repro.topology.graph import NodeKind, TopologyError


@pytest.fixture(scope="module")
def f2_6_addressed():
    topo = f2tree(6)
    assign_addresses(topo)
    return topo


class TestSwitchConfig:
    def test_agg_config_has_backup_statics(self, f2_6_addressed):
        topo = f2_6_addressed
        agg = topo.pod_members(NodeKind.AGG, 0)[0].name
        text = render_switch_config(topo, agg)
        assert f"hostname {agg}" in text
        assert "ip route 10.11.0.0/16" in text
        assert "ip route 10.10.0.0/15" in text
        assert "router ospf 1" in text

    def test_tor_redistributes_connected(self, f2_6_addressed):
        topo = f2_6_addressed
        tor = topo.nodes_of_kind(NodeKind.TOR)[0].name
        text = render_switch_config(topo, tor)
        assert "redistribute connected" in text
        assert "ip route" not in text  # ToRs carry no backup statics

    def test_spf_throttle_rendered_from_params(self, f2_6_addressed):
        topo = f2_6_addressed
        agg = topo.pod_members(NodeKind.AGG, 0)[0].name
        text = render_switch_config(topo, agg)
        assert "timers throttle spf 200 1000 10000" in text

    def test_throttle_can_be_omitted(self, f2_6_addressed):
        topo = f2_6_addressed
        agg = topo.pod_members(NodeKind.AGG, 0)[0].name
        text = render_switch_config(
            topo, agg, options=ConfigOptions(include_spf_throttle=False)
        )
        assert "throttle" not in text

    def test_host_rejected(self, f2_6_addressed):
        with pytest.raises(TopologyError):
            render_switch_config(f2_6_addressed, f2_6_addressed.hosts()[0].name)

    def test_unaddressed_topology_rejected(self):
        topo = f2tree(6)  # no addresses assigned
        agg = topo.pod_members(NodeKind.AGG, 0)[0].name
        with pytest.raises(TopologyError):
            render_switch_config(topo, agg)

    def test_fabric_configs_cover_every_switch(self, f2_6_addressed):
        configs = render_fabric_configs(f2_6_addressed)
        assert set(configs) == {n.name for n in f2_6_addressed.switches()}


class TestConfigDiff:
    def test_rewiring_diff_is_config_only(self):
        """The deployability claim, line by line: moving from fat tree to
        the F²Tree prototype adds static routes and (because the surviving
        ToRs are renumbered by the positional address plan) address /
        network statements — but never touches protocol machinery."""
        fat = fat_tree(4)
        assign_addresses(fat)
        f2, _plan = rewire_fat_tree_prototype(fat_tree(4))
        assign_addresses(f2)
        before = render_fabric_configs(fat)
        after = render_fabric_configs(f2)
        diff = config_diff(before, after)
        allowed_prefixes = (
            "ip route", "!", "description", "ip address", "network",
        )
        for switch, added in diff.items():
            for line in added:
                assert line.strip().startswith(allowed_prefixes), (switch, line)
        # every agg and core switch gained its backup static route(s)
        for switch in f2.nodes_of_kind(NodeKind.AGG, NodeKind.CORE):
            added = diff.get(switch.name, [])
            assert any(l.strip().startswith("ip route") for l in added), switch.name

    def test_identical_configs_diff_empty(self, f2_6_addressed):
        configs = render_fabric_configs(f2_6_addressed)
        assert config_diff(configs, configs) == {}


class TestCli:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ARTIFACTS:
            assert name in out

    def test_unknown_artifact_fails(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown artifact" in capsys.readouterr().err

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "f2tree" in out and "aspen" in out

    def test_run_table2_writes_out(self, tmp_path, capsys):
        assert main(["run", "table2", "--out", str(tmp_path)]) == 0
        written = (tmp_path / "table2.txt").read_text()
        assert "10.11.0.0/16" in written

    def test_run_bisection(self, capsys):
        assert main(["run", "bisection"]) == 0
        assert "fat-tree-8" in capsys.readouterr().out

    def test_run_configs(self, capsys):
        assert main(["run", "configs"]) == 0
        assert "router ospf" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_every_artifact_is_callable(self):
        for name, (fn, description) in ARTIFACTS.items():
            assert callable(fn) and description


class TestCliRecoverReport:
    def test_recover_writes_trace_and_report_rereads_it(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "recover", "--topology", "f2tree", "--trace", str(trace), "--json"
        ]) == 0
        captured = capsys.readouterr()
        import json

        breakdown = json.loads(captured.out)
        assert breakdown["mechanism"] == "fast-reroute"
        assert "wrote" in captured.err
        assert trace.exists()

        # the saved trace re-analyzes to the same decomposition
        assert main(["report", str(trace), "--json"]) == 0
        reread = json.loads(capsys.readouterr().out)
        assert reread == breakdown

        assert main(["report", str(trace)]) == 0
        text = capsys.readouterr().out
        assert "fast-reroute" in text and "detect" in text

    def test_recover_with_a_wrapped_ring_exits_2(self, monkeypatch, capsys):
        """A 20k-event ring evicts the fat-tree run's first ~5k events,
        the failure among them: one diagnostic line and exit 2, not a
        breakdown with mechanism ``none``."""
        import functools

        import repro.obs

        monkeypatch.setattr(
            repro.obs, "Observability",
            functools.partial(repro.obs.Observability, capacity=20_000),
        )
        assert main(["recover", "--topology", "fat-tree"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "ring wrapped" in err[0]

    def test_report_rejects_undecipherable_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        # unusable input is a usage error (2), not a refuted property (1)
        assert main(["report", str(empty)]) == 2
        assert "cannot analyze" in capsys.readouterr().err
