"""Named sweeps: spec builders for the paper's experiment campaigns.

One builder per sweep turns the experiment's arguments into the flat
:class:`~repro.campaign.spec.TrialSpec` list the runner fans out.  The
``repro sweep`` CLI and the ported ``run_*`` experiment entry points both
go through these builders, so the serial legacy API and the parallel CLI
are guaranteed to run the *same* trials.

Paper mapping (see EXPERIMENTS.md):

=============  ===========================================================
sweep          reproduces
=============  ===========================================================
spf-timer      §III ablation — fat-tree outage tracks the SPF timer,
               F²Tree's stays pinned at the detection delay
detection      §III ablation — F²Tree recovery == BFD detection delay
fig4           Fig 4 / Table IV — conditions C1–C7 on both topologies
congestion     backup-path congestion probe (critical evaluation)
verify         §II-C/§III structural claims, proven statically over a
               grid of builders (no simulation; see DESIGN.md §8)
=============  ===========================================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..dataplane.params import NetworkParams
from ..sim.units import Time, milliseconds
from .spec import TrialSpec
from .trials import network_params_to_spec

#: environment knob: default worker count for ported experiment sweeps
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

DEFAULT_SPF_DELAYS: Tuple[Time, ...] = (
    milliseconds(10), milliseconds(50), milliseconds(200), milliseconds(1000),
)
DEFAULT_DETECTION_DELAYS: Tuple[Time, ...] = (
    milliseconds(1), milliseconds(10), milliseconds(30),
    milliseconds(60), milliseconds(120),
)


def effective_workers(workers: Optional[int]) -> int:
    """Resolve a worker count: explicit argument, else env, else serial."""
    if workers is not None:
        return max(1, workers)
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if raw.isdigit() and int(raw) > 0:
        return int(raw)
    return 1


def spf_timer_specs(
    delays: Sequence[Time] = DEFAULT_SPF_DELAYS,
    ports: int = 8,
    seed: int = 1,
    timeout: Optional[float] = None,
) -> List[TrialSpec]:
    """Fat tree vs F²Tree under varying SPF initial delays (C1 failure)."""
    return [
        TrialSpec.make(
            "recovery", seed=seed, timeout=timeout,
            topology=topology, ports=ports, transport="udp",
            net_spf_initial_delay=int(delay),
        )
        for delay in delays
        for topology in ("fat-tree", "f2tree")
    ]


def detection_delay_specs(
    delays: Sequence[Time] = DEFAULT_DETECTION_DELAYS,
    ports: int = 8,
    seed: int = 1,
    timeout: Optional[float] = None,
) -> List[TrialSpec]:
    """F²Tree recovery as a function of the BFD-style detection delay."""
    return [
        TrialSpec.make(
            "recovery", seed=seed, timeout=timeout,
            topology="f2tree", ports=ports, transport="udp",
            net_detection_delay=int(delay), net_up_detection_delay=int(delay),
        )
        for delay in delays
    ]


def figure_four_specs(
    labels: Optional[Sequence[str]] = None,
    ports: int = 8,
    params: Optional[NetworkParams] = None,
    seed: int = 1,
    timeout: Optional[float] = None,
) -> List[TrialSpec]:
    """Every Fig 4 bar group: C1–C5 on both topologies, C6–C7 F²Tree-only."""
    from ..failures.scenarios import ALL_LABELS, FAT_TREE_LABELS

    overrides = network_params_to_spec(params)
    specs: List[TrialSpec] = []
    for label in (ALL_LABELS if labels is None else labels):
        kinds = ("fat-tree", "f2tree") if label in FAT_TREE_LABELS else ("f2tree",)
        for kind in kinds:
            specs.append(
                TrialSpec.make(
                    "condition", seed=seed, timeout=timeout,
                    label=label, topology=kind, ports=ports, **overrides,
                )
            )
    return specs


def congestion_specs(
    flow_counts: Sequence[int] = (2, 4, 6),
    ports: int = 8,
    seed: int = 1,
    timeout: Optional[float] = None,
) -> List[TrialSpec]:
    """Offered load swept across the across-link capacity boundary."""
    return [
        TrialSpec.make(
            "congestion", seed=seed, timeout=timeout,
            hot_flows=n, ports=ports,
        )
        for n in flow_counts
    ]


def verify_specs(
    ports: int = 8,
    seed: int = 1,
    timeout: Optional[float] = None,
) -> List[TrialSpec]:
    """Static verification grid: the rewired builds the paper claims
    protection for, plus the plain baselines that must stay clean."""
    families: Tuple[Tuple[str, int], ...] = (
        ("f2tree", ports),
        ("f2tree", 6),
        ("fat-tree", ports),
        ("f2-leaf-spine", ports),
        ("leaf-spine", ports),
        ("vl2", 4),
        ("aspen", 4),
    )
    return [
        TrialSpec.make(
            "verify", seed=seed, timeout=timeout,
            topology=family, ports=n, max_failures=2,
        )
        for family, n in families
    ]


@dataclass(frozen=True)
class SweepDef:
    """A named sweep the CLI can launch."""

    name: str
    description: str
    #: (ports, seed, timeout) -> specs
    build: Callable[[int, int, Optional[float]], List[TrialSpec]]
    default_ports: int = 8


SWEEPS: Dict[str, SweepDef] = {
    sweep.name: sweep
    for sweep in (
        SweepDef(
            "spf-timer",
            "SPF-timer sensitivity: fat tree vs F2Tree (ablation)",
            lambda ports, seed, timeout: spf_timer_specs(
                ports=ports, seed=seed, timeout=timeout
            ),
        ),
        SweepDef(
            "detection",
            "detection-delay sensitivity of F2Tree recovery (ablation)",
            lambda ports, seed, timeout: detection_delay_specs(
                ports=ports, seed=seed, timeout=timeout
            ),
        ),
        SweepDef(
            "fig4",
            "Fig 4 / Table IV condition matrix C1-C7",
            lambda ports, seed, timeout: figure_four_specs(
                ports=ports, seed=seed, timeout=timeout
            ),
        ),
        SweepDef(
            "congestion",
            "backup-path congestion probe across the capacity boundary",
            lambda ports, seed, timeout: congestion_specs(
                ports=ports, seed=seed, timeout=timeout
            ),
        ),
        SweepDef(
            "verify",
            "static verification grid over rewired builds and baselines",
            lambda ports, seed, timeout: verify_specs(
                ports=ports, seed=seed, timeout=timeout
            ),
        ),
    )
}
