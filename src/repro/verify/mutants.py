"""Seeded defects for the static verifier: its self-test layer.

The dynamic fuzzer (:mod:`repro.check.mutants`) proves its invariants
have teeth by showing each seeded fault is caught.  This module is the
same diagonal for the *static* verifier: every mutant breaks one wiring
or FIB mechanism, names the check that must refute it, and — where the
defect manifests as a forwarding fault at all — carries the dynamic
patch that lets its witness replay under ``CheckedSimulator``
(:mod:`repro.verify.replay`).

Three mutants are the static twins of ``repro.check`` fault mutants
(see :data:`CHECK_EQUIVALENTS`): whatever the fuzzer catches dynamically
for those faults, the verifier must refute statically.  The rest are
wiring/prefix defects only static analysis can see *before* any packet
is lost — the whole point of the subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..check.mutants import _invert_fib_tie_break, _withdraw_static_routes
from ..core.fabrics import build_fabric
from ..net.fib import FibEntry
from ..net.ip import Prefix
from ..topology.graph import Link, LinkKind, NodeKind, Topology
from .checks import (
    COVERAGE,
    LOOP_FREEDOM,
    PREFIX_SOUNDNESS,
    SEV_ERROR,
    WIRING,
    Finding,
    VerifyReport,
    run_verification,
)
from .model import StaticNetworkModel


@dataclass(frozen=True)
class VerifyMutant:
    """One deliberate wiring/FIB defect and the check that must refute it.

    A mutant perturbs exactly one stage of the model build: the topology
    (``rewire``), the backup-route derivation (``tie_break``), the LPM
    order (``shortest_first``), or the finished FIBs (``mutate_model``).
    ``apply_dynamic``, when set, is the equivalent patch on a converged
    simulator bundle so the static witness can be replayed.
    """

    name: str
    check: str
    description: str
    family: str = "f2tree"
    ports: int = 6
    tie_break: str = "prefix-length"
    shortest_first: bool = False
    #: mutates the built topology in place (miswiring defects)
    rewire: Optional[Callable[[Topology], None]] = field(
        default=None, compare=False
    )
    #: mutates the built StaticNetworkModel in place (FIB defects)
    mutate_model: Optional[Callable[[StaticNetworkModel], None]] = field(
        default=None, compare=False
    )
    #: the same fault as an instance patch on a converged bundle
    apply_dynamic: Optional[Callable[[object], None]] = field(
        default=None, compare=False
    )
    #: name of the ``repro.check`` fault mutant this is the twin of
    check_equivalent: Optional[str] = None


@dataclass(frozen=True)
class VerifyMutantResult:
    """One row of the verifier's self-test matrix."""

    name: str
    expected: str
    #: checks refuted on the *unmutated* build (must be empty)
    baseline: Tuple[str, ...]
    #: checks refuted on the mutated build (must include ``expected``)
    caught: Tuple[str, ...]
    #: whether the first error witness replayed dynamically
    #: (None: the defect has no forwarding witness — census-only)
    replayed: Optional[bool] = None
    replay_detail: str = ""

    @property
    def ok(self) -> bool:
        return (
            not self.baseline
            and self.expected in self.caught
            and self.replayed is not False
        )


# ------------------------------------------------------------ FIB mutations


def _model_withdraw_statics(model: StaticNetworkModel) -> None:
    """Strip every ring backup entry: the fall-through has nowhere to
    fall (static twin of ``backup-routes-disabled``)."""
    for name, entries in model.fibs.items():
        model.fibs[name] = [e for e in entries if e.source != "static"]


def _model_prefix_too_long(model: StaticNetworkModel) -> None:
    """Reinstall every backup at ``/24``: no longer strictly shorter than
    learned prefixes, and no longer covering the whole DCN block."""
    for name, entries in model.fibs.items():
        model.fibs[name] = [
            e if e.source != "static" else FibEntry(
                Prefix(e.prefix.address(0), 24),
                e.next_hops,
                source="static",
                metric=e.metric,
            )
            for e in entries
        ]


def _model_ring_order_swapped(model: StaticNetworkModel) -> None:
    """Swap the next hops along each switch's backup chain (``/16`` via
    *left*, ``/15`` via *right*): the prefix-to-direction pairing the
    paper's loop-avoidance argument rests on is reversed."""
    for name in model.switches:
        entries = model.fibs[name]
        statics = [e for e in entries if e.source == "static"]
        if len(statics) < 2:
            continue
        by_length = sorted(statics, key=lambda e: -e.prefix.length)
        hops = [e.next_hops for e in by_length][::-1]
        swapped = {
            e.prefix: FibEntry(e.prefix, h, source="static", metric=e.metric)
            for e, h in zip(by_length, hops)
        }
        model.fibs[name] = [
            swapped.get(e.prefix, e) if e.source == "static" else e
            for e in entries
        ]


# ----------------------------------------------------------- dynamic twins


def _dynamic_prefix_too_long(bundle: Any) -> None:
    for switch in bundle.network.switches():
        statics = [
            e for e in switch.fib.entries() if e.source == "static"
        ]
        for entry in statics:
            switch.fib.withdraw(entry.prefix)
        for entry in statics:
            switch.fib.install(FibEntry(
                Prefix(entry.prefix.address(0), 24),
                entry.next_hops,
                source="static",
                metric=entry.metric,
            ))


# -------------------------------------------------------------- miswirings


def _pod0_agg_across(topo: Topology) -> List[Link]:
    aggs = {n.name for n in topo.pod_members(NodeKind.AGG, 0)}
    return [
        link
        for link in sorted(topo.links.values(), key=lambda l: l.link_id)
        if link.kind is LinkKind.ACROSS
        and link.a in aggs
        and link.b in aggs
    ]


def _cut_one_ring_link(topo: Topology) -> None:
    """Remove a single across link from the pod-0 aggregation ring: the
    ring census must report exactly one missing link."""
    topo.remove_link(_pod0_agg_across(topo)[0])


def _unwire_pod_ring(topo: Topology) -> None:
    """Remove *every* across link of the pod-0 aggregation ring: those
    aggs get no backup routes at all, so a single downward failure on
    them black-holes (a replayable forwarding witness)."""
    for link in _pod0_agg_across(topo):
        topo.remove_link(link)


def _cross_pod_across(topo: Topology) -> None:
    """Replace one in-ring across link with one that crosses pods: the
    census flags the stray link, the deficit, the switches whose backup
    config can no longer be derived, and the port budget the link's new
    end overruns."""
    link = _pod0_agg_across(topo)[0]
    topo.remove_link(link)
    other_pod = topo.pod_members(NodeKind.AGG, 1)[0].name
    topo.add_link(link.a, other_pod, LinkKind.ACROSS)


# ---------------------------------------------------------------- registry

MUTANTS: Dict[str, VerifyMutant] = {}


def _register(mutant: VerifyMutant) -> VerifyMutant:
    MUTANTS[mutant.name] = mutant
    return mutant


_register(VerifyMutant(
    name="statics-withdrawn",
    check=COVERAGE,
    description="every ring backup entry stripped from the FIBs; "
                "downward failures have no fall-through",
    mutate_model=_model_withdraw_statics,
    apply_dynamic=_withdraw_static_routes,
    check_equivalent="backup-routes-disabled",
))

_register(VerifyMutant(
    name="backup-tiebreak-none",
    check=LOOP_FREEDOM,
    description="backups installed as one /16 ECMP group instead of the "
                "/16-right + /15-left rule; two failures ping-pong the ring",
    tie_break="none",
    check_equivalent="backup-tiebreak-none",
))

_register(VerifyMutant(
    name="lpm-inverted",
    check=PREFIX_SOUNDNESS,
    description="LPM chain order inverted to shortest-prefix-first; the "
                "short statics shadow every learned route",
    shortest_first=True,
    apply_dynamic=_invert_fib_tie_break,
    check_equivalent="fib-tiebreak-inverted",
))

_register(VerifyMutant(
    name="backup-prefix-too-long",
    check=PREFIX_SOUNDNESS,
    description="backups reinstalled at /24: equal to learned prefixes "
                "and no longer covering the whole DCN block",
    mutate_model=_model_prefix_too_long,
    apply_dynamic=_dynamic_prefix_too_long,
))

_register(VerifyMutant(
    name="ring-order-swapped",
    check=PREFIX_SOUNDNESS,
    description="/16 points left and /15 right — the prefix-to-direction "
                "pairing of the loop-avoidance argument is reversed",
    mutate_model=_model_ring_order_swapped,
))

_register(VerifyMutant(
    name="ring-link-cut",
    check=WIRING,
    description="one across link of the pod-0 aggregation ring removed; "
                "only the wiring census can see it before packets do",
    rewire=_cut_one_ring_link,
))

_register(VerifyMutant(
    name="pod-ring-unwired",
    check=COVERAGE,
    description="the whole pod-0 aggregation ring unwired; its aggs have "
                "no backups, so one downward failure black-holes",
    rewire=_unwire_pod_ring,
))

_register(VerifyMutant(
    name="cross-pod-across",
    check=WIRING,
    description="an across link rewired to the wrong pod: stray link, "
                "ring deficit, underivable backup configs, port overrun",
    rewire=_cross_pod_across,
))

#: repro.check fault mutant name -> static twin in this registry.  The
#: other three check mutants (lsa-flood-dropped, detection-disabled,
#: channel-leak) break protocol *behaviour*, which no static model of
#: installed state can, or should, see.
CHECK_EQUIVALENTS: Dict[str, str] = {
    "backup-routes-disabled": "statics-withdrawn",
    "backup-tiebreak-none": "backup-tiebreak-none",
    "fib-tiebreak-inverted": "lpm-inverted",
}


# ---------------------------------------------------------------- self-test

_BASELINE_CACHE: Dict[Tuple[str, int, int], Tuple[str, ...]] = {}


def build_mutant_topology(mutant: VerifyMutant) -> Topology:
    topo = build_fabric(mutant.family, mutant.ports)
    if mutant.rewire is not None:
        mutant.rewire(topo)
    return topo


def run_mutant(
    mutant: VerifyMutant, max_failures: int = 2
) -> VerifyReport:
    """The verification report for one mutated build."""
    return run_verification(
        build_mutant_topology(mutant),
        max_failures=max_failures,
        tie_break=mutant.tie_break,
        shortest_first=mutant.shortest_first,
        mutate_model=mutant.mutate_model,
    )


def first_witness(report: VerifyReport) -> Optional[Finding]:
    """The first error finding carrying a concrete failure-set witness."""
    for finding in report.findings:
        if finding.severity == SEV_ERROR and finding.witness is not None:
            return finding
    return None


def check_mutant(
    name: str, max_failures: int = 2, replay: bool = True
) -> VerifyMutantResult:
    """One mutant's diagonal: baseline certifies, mutant is refuted by
    (at least) the expected check, and the witness — if the defect has
    one — replays under ``CheckedSimulator``."""
    mutant = MUTANTS[name]
    baseline_key = (mutant.family, mutant.ports, max_failures)
    if baseline_key not in _BASELINE_CACHE:
        clean = run_verification(
            build_fabric(mutant.family, mutant.ports),
            max_failures=max_failures,
        )
        _BASELINE_CACHE[baseline_key] = tuple(clean.refuted_checks())
    report = run_mutant(mutant, max_failures=max_failures)

    replayed: Optional[bool] = None
    replay_detail = ""
    witnessed = first_witness(report)
    if replay and witnessed is not None and witnessed.witness is not None:
        from .replay import replay_witness

        outcome = replay_witness(
            build_mutant_topology(mutant),
            witnessed.witness,
            tie_break=mutant.tie_break,
            apply_dynamic=mutant.apply_dynamic,
        )
        replayed = outcome.reproduced
        replay_detail = outcome.detail
    return VerifyMutantResult(
        name=name,
        expected=mutant.check,
        baseline=_BASELINE_CACHE[baseline_key],
        caught=tuple(report.refuted_checks()),
        replayed=replayed,
        replay_detail=replay_detail,
    )


def run_selftest(
    max_failures: int = 2, replay: bool = True
) -> List[VerifyMutantResult]:
    """The full mutant matrix, in name order."""
    return [
        check_mutant(name, max_failures=max_failures, replay=replay)
        for name in sorted(MUTANTS)
    ]


def render_selftest(results: List[VerifyMutantResult]) -> str:
    lines = [
        f"{'mutant':<24} {'expected check':<18} {'refuted':<34} "
        f"{'replay':<10} verdict",
    ]
    for result in results:
        caught = ",".join(result.caught) or "(none)"
        replay = (
            "n/a" if result.replayed is None
            else "ok" if result.replayed
            else "FAILED"
        )
        verdict = "ok" if result.ok else (
            f"FAIL (baseline: {','.join(result.baseline) or 'clean'})"
        )
        lines.append(
            f"{result.name:<24} {result.expected:<18} {caught:<34} "
            f"{replay:<10} {verdict}"
        )
    passed = sum(1 for r in results if r.ok)
    lines.append(
        f"{passed}/{len(results)} mutants refuted by their expected check"
    )
    return "\n".join(lines)
