"""Differential cross-backend validation: flow vs packet.

The fluid backend (:mod:`repro.sim.flow`) earns its speed by replacing
per-packet events with analytic rate computation — which is only
admissible if it *agrees* with the packet backend everywhere the paper's
claims live.  This module pins that agreement:

* :func:`run_differential` executes one :class:`TrialConfig` on both
  backends and compares (a) the canonical invariant-violation list,
  (b) every switch's post-quiescence FIB, and (c) the probe delivery
  count (within a small in-flight-boundary tolerance) — any mismatch is
  a ``backend-agreement`` finding;
* :func:`compare_recovery` runs the single-flow recovery experiment on
  both backends and requires the same recovery-time *classification*
  (none / fast-reroute / convergence) and the same final-path outcome;
* the ``flow-fairshare-corrupted`` seeded mutant proves the harness has
  teeth: a corrupted fair-share solver must be caught by the probe-count
  comparison, exactly mirroring the ``spf-engine-corrupted``
  diagonal of :mod:`repro.check.mutants`.

Known, deliberate differences the comparison must tolerate (DESIGN §11):
probe counts may differ by a few packets around failure/recovery
instants (the packet backend loses in-flight packets mid-link; the fluid
model switches rates at the event instant), and TCP collapse *durations*
differ where retransmission dynamics matter — which is why agreement is
asserted on classifications and converged state, not raw durations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING, Tuple

from ..dataplane.params import NetworkParams
from ..sim.flow.fairshare import have_numpy as _have_numpy
from ..topology.graph import Topology
from ..sim.units import Time
from .config import TrialConfig, generate_config
from .execute import CheckOutcome, execute_check
from .invariants import canonical_violations
from .mutants import FaultMutant, MutantResult, _events_config

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.recovery import RecoveryResult

#: the cross-backend agreement pseudo-invariant (not part of the
#: single-backend catalog in :mod:`repro.check.invariants` — it only
#: exists between two executions)
BACKEND_AGREEMENT = "backend-agreement"

#: probe-count slack: packets in flight at a failure instant are lost by
#: the packet backend but not yet counted as delivered credit by the
#: fluid model (and vice versa at recovery); a handful per event, never
#: systematic drift
PROBE_TOLERANCE = 10


@dataclass
class DifferentialResult:
    """One config executed on both backends, compared."""

    config: TrialConfig
    packet: CheckOutcome
    flow: CheckOutcome
    #: human-readable mismatches, each prefixed with its kind
    disagreements: List[str]

    @property
    def ok(self) -> bool:
        return not self.disagreements

    @property
    def kinds(self) -> Tuple[str, ...]:
        """Sorted unique disagreement kinds (``violations``/``fibs``/
        ``probes``)."""
        return tuple(sorted({d.split(":", 1)[0] for d in self.disagreements}))


def run_differential(
    config: TrialConfig,
    mutant: Optional[FaultMutant] = None,
    tolerance: int = PROBE_TOLERANCE,
) -> DifferentialResult:
    """Execute ``config`` on both backends and compare (see module doc).

    ``mutant`` is applied to *both* executions — a mutant that corrupts
    flow-only machinery (like the fair-share solver) no-ops on the
    packet side, which is exactly what makes the packet run the oracle.
    """
    packet = execute_check(
        config.with_backend("packet"), mutant=mutant, capture_fibs=True
    )
    flow = execute_check(
        config.with_backend("flow"), mutant=mutant, capture_fibs=True
    )
    disagreements: List[str] = []
    if canonical_violations(packet.violations) != canonical_violations(
        flow.violations
    ):
        disagreements.append(
            "violations: packet "
            f"{packet.invariants_violated or ['(clean)']} vs flow "
            f"{flow.invariants_violated or ['(clean)']}"
        )
    assert packet.fibs is not None and flow.fibs is not None
    if packet.fibs != flow.fibs:
        differing = sorted(
            name
            for name in set(packet.fibs) | set(flow.fibs)
            if packet.fibs.get(name) != flow.fibs.get(name)
        )
        disagreements.append(
            f"fibs: {len(differing)} switch(es) differ post-quiescence: "
            f"{differing[:5]}"
        )
    delta = abs(
        packet.stats["probes_received"] - flow.stats["probes_received"]
    )
    if (
        packet.stats["probes_sent"] != flow.stats["probes_sent"]
        or delta > tolerance
    ):
        disagreements.append(
            f"probes: packet {packet.stats['probes_sent']}/"
            f"{packet.stats['probes_received']} vs flow "
            f"{flow.stats['probes_sent']}/{flow.stats['probes_received']} "
            f"(tolerance {tolerance})"
        )
    return DifferentialResult(
        config=config, packet=packet, flow=flow, disagreements=disagreements
    )


def run_differential_fuzz(
    trials: int,
    start_seed: int = 0,
    tolerance: int = PROBE_TOLERANCE,
    progress: Optional[Callable[[int, DifferentialResult], None]] = None,
) -> List[DifferentialResult]:
    """Fuzz ``trials`` generated configs through :func:`run_differential`.

    The same deterministic config generator as single-backend fuzzing
    (:func:`repro.check.config.generate_config`), so a disagreeing seed
    replays exactly.
    """
    results: List[DifferentialResult] = []
    for index in range(trials):
        result = run_differential(
            generate_config(start_seed + index), tolerance=tolerance
        )
        results.append(result)
        if progress is not None:
            progress(start_seed + index, result)
    return results


def render_differential(results: List[DifferentialResult]) -> str:
    lines = []
    for result in results:
        config = result.config
        label = (
            f"{config.topology}/{config.ports} seed={config.seed} "
            f"{config.scenario or f'{len(config.events)} events'}"
        )
        if result.ok:
            lines.append(f"agree  {label}")
        else:
            lines.append(f"DIFFER {label}: {'; '.join(result.disagreements)}")
    agreed = sum(1 for r in results if r.ok)
    lines.append(f"{agreed}/{len(results)} trials agree across backends")
    return "\n".join(lines)


# ----------------------------------------------------- recovery agreement

#: recovery-time classes (Table III's qualitative split)
CLASS_NONE = "none"
CLASS_FRR = "fast-reroute"
CLASS_CONVERGENCE = "convergence"


def classify_recovery_time(
    loss: Optional[Time], params: NetworkParams, rto_quantized: bool = False
) -> str:
    """Bin a connectivity-loss (or collapse) duration into the paper's
    qualitative recovery classes.

    Fast reroute restores traffic right after failure *detection*
    (backup routes, no SPF); plain convergence additionally waits out the
    SPF initial timer — so the class boundary sits halfway into the SPF
    window, far from both modes for any sane parameter draw.

    ``rto_quantized`` classifies a *packet-backend TCP* collapse: that
    sender cannot resume before its retransmission timer fires even when
    fast reroute healed the path earlier, so its observed collapse is
    the heal time quantized up to the RTO backoff schedule (an FRR-window
    heal resumes at the first RTO, a convergence-window heal at the
    second backoff point).  Shifting the boundary by one initial RTO
    maps the quantized durations onto the same classes the un-quantized
    heal times (UDP loss, or the fluid model's collapse — it has no RTO
    dynamics) fall into.
    """
    if loss is None or loss <= 0:
        return CLASS_NONE
    boundary = params.detection_delay + params.spf_initial_delay // 2
    if rto_quantized:
        from ..transport.tcp import TcpParams

        boundary += TcpParams().rto_initial
    return CLASS_FRR if loss <= boundary else CLASS_CONVERGENCE


@dataclass
class RecoveryAgreement:
    """Both backends' recovery runs, reduced to what must match."""

    topology: str
    transport: str
    packet_class: str
    flow_class: str
    #: (loss-or-collapse duration, final path complete) per backend
    packet_outcome: Tuple[Optional[Time], bool]
    flow_outcome: Tuple[Optional[Time], bool]

    @property
    def ok(self) -> bool:
        return (
            self.packet_class == self.flow_class
            and self.packet_outcome[1] == self.flow_outcome[1]
        )


def compare_recovery(
    topology: Topology,
    transport: str = "udp",
    params: Optional[NetworkParams] = None,
    **kwargs: Any,
) -> RecoveryAgreement:
    """Run :func:`repro.experiments.recovery.run_recovery` on both
    backends and compare recovery-time classification and final path."""
    from ..experiments.recovery import run_recovery

    base = params if params is not None else NetworkParams()
    runs = {}
    for backend in ("packet", "flow"):
        backend_params = base.with_overrides(backend=backend)
        runs[backend] = run_recovery(
            topology, transport=transport, params=backend_params, **kwargs
        )

    def reduce(
        result: "RecoveryResult", backend: str
    ) -> Tuple[str, Tuple[Optional[Time], bool]]:
        duration = (
            result.connectivity_loss
            if transport == "udp"
            else result.collapse_duration
        )
        complete = (
            result.path_after[1] if result.path_after is not None else False
        )
        quantized = transport == "tcp" and backend == "packet"
        return (
            classify_recovery_time(duration, base, rto_quantized=quantized),
            (duration, complete),
        )

    packet_class, packet_outcome = reduce(runs["packet"], "packet")
    flow_class, flow_outcome = reduce(runs["flow"], "flow")
    return RecoveryAgreement(
        topology=topology.name,
        transport=transport,
        packet_class=packet_class,
        flow_class=flow_class,
        packet_outcome=packet_outcome,
        flow_outcome=flow_outcome,
    )


# ------------------------------------------------------------ flow mutants

#: seeded mutants whose breakage only the *cross-backend* comparison can
#: see — they live outside :data:`repro.check.mutants.MUTANTS` because
#: the single-backend selftest diagonal has no backend-agreement row
FLOW_MUTANTS: Dict[str, FaultMutant] = {}


def _corrupt_fair_share(bundle: Any) -> None:
    """Starve the fluid solver: every flow's fair share becomes zero, so
    the flow backend delivers nothing while its control plane (and the
    packet oracle) behave perfectly — only the probe-count comparison of
    the backend-agreement harness can catch it."""
    model = bundle.flow_model
    if model is None:  # packet side: the oracle stays healthy
        return
    original = model.solver

    def starved(
        incidence: Any,
        capacity: Any,
        demand: Any,
        _original: Callable[..., Dict[object, float]] = original,
    ) -> Dict[object, float]:
        return {name: 0.0 for name in _original(incidence, capacity, demand)}

    model.solver = starved


def _register(mutant: FaultMutant) -> FaultMutant:
    FLOW_MUTANTS[mutant.name] = mutant
    return mutant


_register(FaultMutant(
    name="flow-fairshare-corrupted",
    invariant=BACKEND_AGREEMENT,
    description="max-min fair-share solver returns all-zero rates; the "
                "fluid backend black-holes every flow while routing "
                "stays perfect, so only the cross-backend probe-count "
                "comparison can catch it",
    config_factory=lambda: _events_config("fat-tree", 4, "C1"),
    apply=_corrupt_fair_share,
))


def _corrupt_vector_engine(bundle: Any) -> None:
    """Break only the *vectorized* fair-share engine: the flow model is
    pinned to ``engine="numpy"`` and every solved rate is halved — the
    drift a compaction/scatter bug in the vector path would produce.
    The python engine (the bitwise oracle the hypothesis suite compares
    against) and the packet backend stay exact, so the corruption is
    observable only as the fluid flows undershooting their delivery —
    the cross-backend probe-count comparison."""
    model = bundle.flow_model
    if model is None:  # packet side: the oracle stays healthy
        return
    from ..sim.flow.fairshare import max_min_rates as _solve

    def drifted(
        incidence: Any,
        capacity: Any,
        demand: Any,
    ) -> Dict[object, float]:
        rates = _solve(incidence, capacity, demand, engine="numpy")
        return {name: rate * 0.5 for name, rate in sorted(rates.items())}

    model.solver = drifted


# the vector mutant needs the vectorized engine to corrupt; on a
# numpy-less interpreter there is no numpy path to diverge, so the row
# is (honestly) absent from the matrix rather than vacuously green —
# CI's fuzz job installs numpy precisely so the diagonal always runs
if _have_numpy():
    _register(FaultMutant(
        name="fairshare-vector-corrupted",
        invariant=BACKEND_AGREEMENT,
        description="vectorized fair-share engine halves every rate "
                    "while the python oracle stays exact; the fluid "
                    "backend under-delivers and only the cross-backend "
                    "probe-count comparison can catch it",
        config_factory=lambda: _events_config("fat-tree", 4, "C1"),
        apply=_corrupt_vector_engine,
    ))


def check_flow_mutant(name: str) -> MutantResult:
    """One flow mutant's diagonal: differential baseline clean, mutated
    differential caught as ``backend-agreement``."""
    mutant = FLOW_MUTANTS[name]
    config = mutant.config_factory()
    baseline = run_differential(config)
    mutated = run_differential(config, mutant=mutant)
    return MutantResult(
        name=name,
        expected=BACKEND_AGREEMENT,
        baseline=(
            () if baseline.ok else (BACKEND_AGREEMENT,) + baseline.kinds
        ),
        caught=(BACKEND_AGREEMENT,) if not mutated.ok else (),
    )


def run_flow_selftest() -> List[MutantResult]:
    """The flow-mutant matrix, in name order."""
    return [check_flow_mutant(name) for name in sorted(FLOW_MUTANTS)]
