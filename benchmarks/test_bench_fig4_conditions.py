"""Table IV + Fig 4: recovery under failure conditions C1-C7.

8-port fat tree vs F²Tree: UDP connectivity loss and packet loss, TCP
throughput collapse, for every Table IV scenario.  Asserts the paper's
shape: F²Tree holds at ~60 ms (detection) for C1-C6 and degrades to the
fat-tree ~270 ms only under C7.
"""

from __future__ import annotations

from repro.experiments.conditions import (
    conditions_topology,
    render_figure_four,
    run_condition,
    run_figure_four,
)
from repro.failures.scenarios import render_table_four, all_scenarios
from repro.sim.units import milliseconds


def test_bench_fig4_conditions(benchmark, emit):
    rows = benchmark.pedantic(run_figure_four, rounds=1, iterations=1)

    topo = conditions_topology("f2tree")
    # the path every F2Tree UDP cell planned its scenario against
    path = run_condition(
        "f2tree", "C1", flow_duration=milliseconds(500), drain=milliseconds(100)
    ).result.path_before
    table_four = render_table_four(all_scenarios(topo, path))
    emit(
        "Table IV (instantiated against the measured flow path):\n"
        + table_four
        + "\n\n"
        + render_figure_four(rows)
    )

    by_key = {(r.label, r.kind): r for r in rows}
    for label in ("C1", "C2", "C3", "C4", "C5", "C6"):
        f2 = by_key[(label, "f2tree")]
        assert 55 <= f2.connectivity_loss_ms <= 75, label  # detection-bound
    for label in ("C1", "C4", "C5"):
        fat = by_key[(label, "fat-tree")]
        f2 = by_key[(label, "f2tree")]
        assert fat.connectivity_loss_ms > 250, label  # control-plane-bound
        assert f2.packets_lost < fat.packets_lost / 3, label
        assert f2.collapse_ms < fat.collapse_ms / 2, label
    # C7: the condition-4 pattern defeats the 2-port design
    assert by_key[("C7", "f2tree")].connectivity_loss_ms > 250
