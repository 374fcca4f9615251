"""§IV-A: the C1-C7 failure-condition experiments (Table IV, Fig 4, Fig 5).

8-port, 3-layer fat tree vs F²Tree; a UDP and a TCP flow from leftmost to
rightmost host; each Table IV scenario is instantiated against the traced
forwarding path.  For every run we also classify the scenario with
:mod:`repro.core.failure_analysis` and check the simulated outcome against
the analytical prediction (fast reroute iff condition 1-3; extra path
length during reroute).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..core.fabrics import build_fabric
from ..core.failure_analysis import FailureAnalysis, analyze_scenario
from ..dataplane.params import NetworkParams
from ..failures.scenarios import (
    ALL_LABELS,
    FAT_TREE_LABELS,
    ConditionScenario,
    build_scenario,
)
from ..sim.units import to_milliseconds
from ..topology.graph import Topology
from .recovery import RecoveryResult, reroute_delay_microseconds, run_recovery


def conditions_topology(kind: str, ports: int = 8, across_ports: int = 2) -> Topology:
    """The §IV emulation topologies: ``fat-tree`` or ``f2tree``
    (8-port by default)."""
    if kind not in ("fat-tree", "f2tree"):
        raise ValueError(f"unknown conditions kind {kind!r}")
    return build_fabric(kind, ports, across_ports)


@dataclass
class ConditionRun:
    """One (topology, condition, transport) run plus its classification."""

    kind: str
    scenario: ConditionScenario
    result: RecoveryResult
    #: analytical classification (F²-style topologies only)
    analysis: Optional[FailureAnalysis] = None

    @property
    def fast_rerouted(self) -> bool:
        """Whether the data plane recovered without the control plane.

        Fast reroute caps the outage at the failure-detection delay; a
        control-plane recovery additionally waits for the SPF timer and
        FIB update (>= 200 ms more).  We split the difference at detection
        delay + 40 ms.
        """
        loss = self.result.connectivity_loss
        if loss is None:
            raise ValueError("fast_rerouted needs a UDP run")
        from ..sim.units import milliseconds

        return loss <= milliseconds(100)


def run_condition(
    kind: str,
    label: str,
    transport: str = "udp",
    ports: int = 8,
    across_ports: int = 2,
    params: Optional[NetworkParams] = None,
    seed: int = 1,
    **recovery_kwargs: Any,
) -> ConditionRun:
    """Run one Table IV condition on one topology.

    The scenario is instantiated inside the run, against the path the
    measured flow takes on the trial's own converged network (ECMP
    hashes the five-tuple, so the UDP probe and the TCP flow take
    different paths) — one network per trial, planned under the caller's
    ``params`` and ``seed``.  Extra keyword arguments (``flow_duration``,
    ``drain``, ...) pass through to
    :func:`repro.experiments.recovery.run_recovery`.
    """
    if kind == "fat-tree" and label not in FAT_TREE_LABELS:
        raise ValueError(f"{label} involves across links; fat tree has none")
    topology = conditions_topology(kind, ports, across_ports)
    result = run_recovery(
        topology, transport, scenario_label=label, params=params, seed=seed,
        **recovery_kwargs,
    )
    # the run planned the scenario on its own converged network, against
    # the path its measured flow hashed onto; rebuild it for the analysis
    scenario = build_scenario(label, topology, result.path_before)
    analysis = None
    if kind == "f2tree":
        analysis = analyze_scenario(
            topology, scenario.sx, scenario.dest_tor, frozenset(scenario.failed)
        )
    return ConditionRun(kind=kind, scenario=scenario, result=result, analysis=analysis)


@dataclass
class FigureFourRow:
    """One bar group of Fig 4 (per condition, per topology)."""

    label: str
    kind: str
    connectivity_loss_ms: float
    packets_lost: int
    collapse_ms: float


def run_figure_four(
    labels: Sequence[str] = ALL_LABELS,
    ports: int = 8,
    params: Optional[NetworkParams] = None,
    seed: int = 1,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
) -> List[FigureFourRow]:
    """All Fig 4 bars: C1-C5 on both topologies, C6-C7 on F²Tree only.

    Each (condition, topology) cell is one campaign trial (its UDP and
    TCP runs together), so the whole matrix parallelizes across
    ``workers`` processes with results independent of the worker count.
    """
    from ..campaign.runner import run_campaign
    from ..campaign.sweeps import effective_workers, figure_four_specs

    specs = figure_four_specs(
        labels, ports=ports, params=params, seed=seed, timeout=timeout
    )
    report = run_campaign(
        specs, name="figure-four", workers=effective_workers(workers),
        timeout=timeout,
    ).require_success()
    rows: List[FigureFourRow] = []
    for spec in specs:
        payload = report.payload_for(spec)
        rows.append(
            FigureFourRow(
                label=payload["label"],
                kind=payload["kind"],
                connectivity_loss_ms=payload["connectivity_loss_ms"],
                packets_lost=payload["packets_lost"],
                collapse_ms=payload["collapse_ms"],
            )
        )
    return rows


def render_figure_four(rows: Sequence[FigureFourRow]) -> str:
    lines = [
        "Fig 4: recovery under failure conditions C1-C7 (paper: F2Tree ~60 ms"
        " loss for C1-C6, fat-tree ~270 ms; C7 degrades to fat tree)",
        f"{'cond':<6} {'topology':<10} {'conn. loss (ms)':>16} "
        f"{'pkts lost':>10} {'TCP collapse (ms)':>18}",
    ]
    for row in rows:
        lines.append(
            f"{row.label:<6} {row.kind:<10} {row.connectivity_loss_ms:>16.1f} "
            f"{row.packets_lost:>10d} {row.collapse_ms:>18.1f}"
        )
    return "\n".join(lines)


@dataclass
class DelayProfile:
    """Fig 5: one condition's end-to-end delay profile."""

    label: str
    kind: str
    before_us: float
    during_reroute_us: float
    after_us: float
    loss_window_ms: float


def run_figure_five(
    labels: Sequence[str] = ("C1", "C4", "C5", "C7"),
    ports: int = 8,
    params: Optional[NetworkParams] = None,
    seed: int = 1,
    include_fat_tree_c1: bool = True,
) -> List[DelayProfile]:
    """The Fig 5 delay profiles (UDP runs)."""
    profiles: List[DelayProfile] = []
    runs: List[Tuple[str, str]] = []
    if include_fat_tree_c1:
        runs.append(("fat-tree", "C1"))
    runs.extend(("f2tree", label) for label in labels)
    for kind, label in runs:
        run = run_condition(kind, label, "udp", ports, params=params, seed=seed)
        before, during, after = reroute_delay_microseconds(run.result)
        assert run.result.connectivity_loss is not None
        profiles.append(
            DelayProfile(
                label=label,
                kind=kind,
                before_us=before,
                during_reroute_us=during,
                after_us=after,
                loss_window_ms=to_milliseconds(run.result.connectivity_loss),
            )
        )
    return profiles


def render_figure_five(profiles: Sequence[DelayProfile]) -> str:
    lines = [
        "Fig 5: end-to-end delay around recovery (paper: 100 us baseline,"
        " 117 us during 1-extra-hop fast reroute)",
        f"{'cond':<6} {'topology':<10} {'before (us)':>12} "
        f"{'during (us)':>12} {'after (us)':>12} {'loss window (ms)':>17}",
    ]
    for p in profiles:
        lines.append(
            f"{p.label:<6} {p.kind:<10} {p.before_us:>12.1f} "
            f"{p.during_reroute_us:>12.1f} {p.after_us:>12.1f} "
            f"{p.loss_window_ms:>17.1f}"
        )
    return "\n".join(lines)
