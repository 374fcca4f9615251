"""What ``perfbench/layers.py`` names inside ``src/`` still resolves.

perfbench wraps public callables and reads counters from outside the
package, and no PR but a ``benchmark``-type one may edit it — so a moved
callable must fail here, in tier-1, not in CI's perf-smoke job.  The
same reading keeps the leftovers honest: ``routing/spf_incremental.py``,
three ``ProtocolStats`` fields and the fluid model's constant
``incremental_solves`` exist only because ``layers.py`` names them, the
two ``have_numpy()`` functions only because ``child.py`` calls them, and
these tests say "delete" the day it stops.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

from repro.dataplane.network import Network
from repro.dataplane.params import NetworkParams
from repro.routing import spf_batch
from repro.routing.linkstate import ProtocolStats
from repro.sim.engine import Simulator
from repro.sim.flow import FluidTrafficModel, fairshare
from repro.topology.fattree import fat_tree

_PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
_LAYERS = ast.parse((_PERFBENCH / "layers.py").read_text())
_CHILD = ast.parse((_PERFBENCH / "child.py").read_text())


def test_every_tracer_target_resolves_as_install_resolves_it():
    targets = [
        (call.args[0].value, call.args[1].value)
        for call in ast.walk(_LAYERS)
        if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "Target"
    ]
    assert targets
    for module_name, name in targets:
        module = importlib.import_module(module_name)
        owner_name, _, attr = name.rpartition(".")
        if owner_name:  # a method must be defined on the class itself
            assert attr in vars(getattr(module, owner_name)), (module_name, name)
        else:
            assert hasattr(module, attr), (module_name, name)
    assert "repro.routing.spf_incremental" in {module for module, _ in targets}, (
        "perfbench/layers.py no longer names it: "
        "delete src/repro/routing/spf_incremental.py"
    )


def test_protocol_stats_has_every_counter_end_trial_reads():
    end_trial = next(
        node for node in ast.walk(_LAYERS)
        if isinstance(node, ast.FunctionDef) and node.name == "end_trial"
    )
    read = {
        node.attr for node in ast.walk(end_trial)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "stats"
    }
    stats = ProtocolStats()
    assert [name for name in sorted(read) if not hasattr(stats, name)] == []
    kept_for_perfbench = {
        "spf_incremental_runs", "spf_full_runs", "spf_nodes_touched",
    }
    assert kept_for_perfbench <= read, (
        "perfbench/layers.py no longer reads them: delete "
        f"ProtocolStats.{sorted(kept_for_perfbench - read)}"
    )


def test_constant_incremental_solves_is_kept_only_while_layers_reports_it():
    """``end_trial`` reports every ``FluidTrafficModel.stats()`` key as
    ``sim.flow.<key>``; the model has not solved incrementally since
    every solve became a full one, so the key is a constant 0."""
    reported = {
        node.value for node in ast.walk(_LAYERS)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert "sim.flow.incremental_solves" in reported, (
        "perfbench/layers.py no longer reports it: delete "
        "FluidTrafficModel.stats()['incremental_solves']"
    )
    network = Network(fat_tree(4), Simulator(), NetworkParams(backend="flow"))
    assert FluidTrafficModel(network).stats()["incremental_solves"] == 0


def test_have_numpy_is_kept_only_while_child_calls_it():
    """numpy is a declared dependency, so both ``have_numpy()`` answer
    True; ``perfbench/child.py`` still asks them before it measures."""
    called = {
        (node.func.value.id, node.func.attr)
        for node in ast.walk(_CHILD)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
    }
    for module in (fairshare, spf_batch):
        name = module.__name__.rpartition(".")[2]
        assert (name, "have_numpy") in called, (
            f"perfbench/child.py no longer calls it: delete {module.__name__}.have_numpy"
        )
        assert module.have_numpy() is True
