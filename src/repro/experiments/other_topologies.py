"""§V / Fig 7: F²Tree's scheme on Leaf-Spine and VL2.

For each fabric we fail the downward link above the destination rack and
compare the original topology (control-plane recovery) with its F²
adaptation (ring + backup routes, local fast reroute).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.fabrics import build_fabric
from ..dataplane.params import NetworkParams
from ..sim.units import to_milliseconds
from ..topology.graph import Topology
from .recovery import run_recovery


#: the Fig 7 fabrics and their port counts, chosen to match the
#: figure's scale: 8 leaves x 4 spines, and VL2 with d_a = d_i = 4
FIGURE_SEVEN_PORTS = {"leaf-spine": 8, "f2-leaf-spine": 8, "vl2": 4, "f2-vl2": 4}


def figure_seven_topology(kind: str) -> Topology:
    """One Fig 7 fabric at the figure's size."""
    if kind not in FIGURE_SEVEN_PORTS:
        raise ValueError(f"unknown Fig 7 kind {kind!r}")
    return build_fabric(kind, FIGURE_SEVEN_PORTS[kind])


@dataclass
class FigureSevenRow:
    """Recovery from a downward rack-link failure on one fabric."""

    kind: str
    connectivity_loss_ms: float
    packets_lost: int
    fast_rerouted: bool


def run_figure_seven(
    kinds: Optional[List[str]] = None,
    params: Optional[NetworkParams] = None,
    seed: int = 1,
) -> List[FigureSevenRow]:
    """All four Fig 7 comparisons (UDP probe flow)."""
    rows: List[FigureSevenRow] = []
    for kind in kinds or FIGURE_SEVEN_PORTS:
        result = run_recovery(figure_seven_topology(kind), "udp", params=params, seed=seed)
        assert result.connectivity_loss is not None
        rows.append(
            FigureSevenRow(
                kind=kind,
                connectivity_loss_ms=to_milliseconds(result.connectivity_loss),
                packets_lost=result.packets_lost,
                fast_rerouted=result.connectivity_loss <= 100_000_000,
            )
        )
    return rows


def render_figure_seven(rows: List[FigureSevenRow]) -> str:
    lines = [
        "Fig 7: F2Tree scheme on other multi-rooted fabrics (downward rack"
        " link failure)",
        f"{'fabric':<16} {'conn. loss (ms)':>16} {'pkts lost':>10} "
        f"{'fast reroute':>13}",
    ]
    for row in rows:
        lines.append(
            f"{row.kind:<16} {row.connectivity_loss_ms:>16.1f} "
            f"{row.packets_lost:>10d} {str(row.fast_rerouted):>13}"
        )
    return "\n".join(lines)
