"""What ``perfbench/layers.py`` names inside ``src/`` still resolves.

perfbench wraps public callables and reads counters from outside the
package, and no PR but a ``benchmark``-type one may edit it — so a moved
callable must fail here, in tier-1, not in CI's perf-smoke job.  The
same reading keeps two leftovers honest: ``routing/spf_incremental.py``
and three ``ProtocolStats`` fields exist only because ``layers.py``
names them, and these tests say "delete" the day it stops.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

from repro.routing.linkstate import ProtocolStats

_LAYERS = ast.parse(
    (pathlib.Path(__file__).parent.parent / "perfbench" / "layers.py").read_text()
)


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
