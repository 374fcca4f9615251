"""Seeded defects for the static verifier: its self-test layer.

Every mutant breaks one wiring or FIB mechanism, names the check that
must refute it (see :mod:`repro.selftest`), and — where the defect
manifests as a forwarding fault at all — carries the dynamic patch that
lets its witness replay under ``CheckedSimulator``
(:mod:`repro.verify.replay`).

Three mutants are the static twins of ``repro.check`` fault mutants
(see :data:`CHECK_EQUIVALENTS`): whatever the fuzzer catches dynamically
for those faults, the verifier must refute statically.  The rest are
wiring/prefix defects only static analysis can see *before* any packet
is lost — the whole point of the subsystem.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..check.mutants import _invert_fib_tie_break, _withdraw_static_routes
from ..core.fabrics import build_fabric
from ..net.fib import FibEntry
from ..net.ip import Prefix
from ..selftest import INCLUDES, Diagonal
from ..topology.graph import Link, LinkKind, NodeKind, Topology
from .checks import (
    COVERAGE,
    LOOP_FREEDOM,
    PREFIX_SOUNDNESS,
    SEV_ERROR,
    WIRING,
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
))

_register(VerifyMutant(
    name="backup-tiebreak-none",
    check=LOOP_FREEDOM,
    description="backups installed as one /16 ECMP group instead of the "
                "/16-right + /15-left rule; two failures ping-pong the ring",
    tie_break="none",
))

_register(VerifyMutant(
    name="lpm-inverted",
    check=PREFIX_SOUNDNESS,
    description="LPM chain order inverted to shortest-prefix-first; the "
                "short statics shadow every learned route",
    shortest_first=True,
    apply_dynamic=_invert_fib_tie_break,
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
#: other four check mutants (lsa-flood-dropped, detection-disabled,
#: channel-leak, spf-engine-corrupted) break protocol *behaviour*, which
#: no static model of installed state can, or should, see.
CHECK_EQUIVALENTS: Dict[str, str] = {
    "backup-routes-disabled": "statics-withdrawn",
    "backup-tiebreak-none": "backup-tiebreak-none",
    "fib-tiebreak-inverted": "lpm-inverted",
}


# ---------------------------------------------------------------- self-test


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


def diagonals(max_failures: int = 2) -> List[Diagonal]:
    """The ``verify`` oracle's diagonals, in name order."""
    return [_diagonal(MUTANTS[name], max_failures) for name in sorted(MUTANTS)]


def _diagonal(mutant: VerifyMutant, max_failures: int) -> Diagonal:
    # one verification feeds both the refuted checks and the replay
    report = functools.cache(lambda: run_mutant(mutant, max_failures))

    def replay() -> Optional[bool]:
        """Whether the first error witness reproduces under
        ``CheckedSimulator`` (None: no error carries a witness)."""
        for finding in report().findings:
            if finding.severity == SEV_ERROR and finding.witness is not None:
                from .replay import replay_witness

                return replay_witness(
                    build_mutant_topology(mutant), finding.witness,
                    tie_break=mutant.tie_break, apply_dynamic=mutant.apply_dynamic,
                )
        return None

    return Diagonal(
        name=mutant.name,
        oracle="verify",
        expected=mutant.check,
        match=INCLUDES,
        baseline=f"{mutant.family}/{mutant.ports}/{max_failures}",
        clean=lambda: tuple(run_verification(
            build_fabric(mutant.family, mutant.ports), max_failures=max_failures
        ).refuted_checks()),
        mutated=lambda: tuple(report().refuted_checks()),
        replay=replay,
    )
