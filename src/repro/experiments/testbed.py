"""§III testbed experiment: Fig 2 and Table III.

The 4-port, 3-layer fat tree (Fig 1(a)) versus the rewired F²Tree
prototype (Fig 1(b)); one UDP and one TCP flow from the leftmost host to
the rightmost; the downward ToR<->aggregation link on the forwarding path
is torn down mid-flow.  Reported exactly as Table III: duration of
connectivity loss, packets lost, duration of throughput collapse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.fabrics import build_fabric
from ..dataplane.params import NetworkParams
from ..obs import Observability
from ..sim.units import to_microseconds
from ..topology.graph import Topology
from .recovery import RecoveryResult, run_recovery


#: Table III's two arms and the 4-port family each one builds
TESTBED_FABRICS = {"fat-tree": "fat-tree", "f2tree": "f2tree-prototype"}


def testbed_topology(kind: str) -> Topology:
    """The §III prototypes: ``fat-tree`` or ``f2tree`` (rewired)."""
    if kind not in TESTBED_FABRICS:
        raise ValueError(f"unknown testbed kind {kind!r}")
    return build_fabric(TESTBED_FABRICS[kind], 4)


def run_testbed(
    kind: str,
    transport: str,
    params: Optional[NetworkParams] = None,
    seed: int = 1,
    obs: Optional[Observability] = None,
) -> RecoveryResult:
    """One §III run (one topology, one transport)."""
    return run_recovery(
        testbed_topology(kind), transport, params=params, seed=seed, obs=obs
    )


@dataclass
class TableThreeRow:
    """One row of Table III."""

    topology: str
    connectivity_loss_us: float
    packets_lost: int
    collapse_us: float


def run_table_three(
    params: Optional[NetworkParams] = None, seed: int = 1
) -> Dict[str, TableThreeRow]:
    """Both rows of Table III (each row needs a UDP run and a TCP run)."""
    rows: Dict[str, TableThreeRow] = {}
    for kind in TESTBED_FABRICS:
        udp = run_testbed(kind, "udp", params=params, seed=seed)
        tcp = run_testbed(kind, "tcp", params=params, seed=seed)
        assert udp.connectivity_loss is not None
        assert tcp.collapse_duration is not None
        rows[kind] = TableThreeRow(
            topology=kind,
            connectivity_loss_us=to_microseconds(udp.connectivity_loss),
            packets_lost=udp.packets_lost,
            collapse_us=to_microseconds(tcp.collapse_duration),
        )
    return rows


def render_table_three(rows: Dict[str, TableThreeRow]) -> str:
    """Table III rendering (paper reference values in the header)."""
    lines = [
        "Table III: failure of one downward ToR<->agg link (paper: fat tree"
        " 272847 us / 1302 pkts / 700000 us; F2Tree 60619 us / 310 pkts /"
        " 220000 us)",
        f"{'topology':<12} {'conn. loss (us)':>16} {'packets lost':>13} "
        f"{'collapse (us)':>14}",
    ]
    for row in rows.values():
        lines.append(
            f"{row.topology:<12} {row.connectivity_loss_us:>16.0f} "
            f"{row.packets_lost:>13d} {row.collapse_us:>14.0f}"
        )
    return "\n".join(lines)
