"""Seeded fault mutants: the checker's self-test layer.

Each mutant deliberately breaks one mechanism of the system under test
and names the single invariant that must catch it, exactly (see
:mod:`repro.selftest`).  A fuzzer that never fires could otherwise just
be checking nothing.

The mutants are pure instance patches (FIB withdrawals, bound-method
overrides on one protocol/link/channel object), so they perturb a single
trial without monkeypatching any module state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..selftest import EXACT, Diagonal, Fired
from ..sim.units import milliseconds
from ..topology.graph import NodeKind
from .config import TrialConfig, fast_overrides
from .execute import concretize, execute_check
from .invariants import (
    BLACKHOLE_BOUND,
    CONVERGENCE_AGREEMENT,
    FIB_CONSISTENCY,
    FRR_WINDOW,
    LOOP_FREEDOM,
    SIM_SANITY,
)

#: warmup for mutant trials — fast timers converge well inside this
_MUTANT_WARMUP = milliseconds(500)


@dataclass(frozen=True)
class FaultMutant:
    """One deliberate breakage and the invariant that must catch it."""

    name: str
    invariant: str
    description: str
    #: builds the (deterministic) trial config the mutant runs under
    config_factory: Callable[[], TrialConfig] = field(compare=False)
    #: patches the converged bundle just before events fire
    apply: Callable[[object], None] = field(compare=False)
    #: tie-break handed to ``configure_backup_routes`` at build time
    backup_tie_break: str = "prefix-length"


def _scenario_config(topology: str, ports: int, label: str) -> TrialConfig:
    return TrialConfig(
        topology=topology,
        ports=ports,
        profile="scenario",
        scenario=label,
        overrides=fast_overrides(),
        warmup=_MUTANT_WARMUP,
    )


_CONCRETE_CACHE: Dict[str, TrialConfig] = {}


def _events_config(topology: str, ports: int, label: str) -> TrialConfig:
    """A Table IV failure pattern as an explicit events profile (cached —
    concretizing runs a warmup)."""
    key = f"{topology}/{ports}/{label}"
    if key not in _CONCRETE_CACHE:
        _CONCRETE_CACHE[key] = concretize(_scenario_config(topology, ports, label))
    return _CONCRETE_CACHE[key]


def _quiet_config(topology: str, ports: int) -> TrialConfig:
    """No failures at all: only the quiescent checks exercise the fault."""
    return TrialConfig(
        topology=topology,
        ports=ports,
        overrides=fast_overrides(),
        warmup=_MUTANT_WARMUP,
    )


# ------------------------------------------------------------ apply hooks


def _withdraw_static_routes(bundle: Any) -> None:
    """Remove every ring backup route after convergence: condition 1
    should fast-reroute but the fall-through has nowhere to fall."""
    for switch in bundle.network.switches():
        for entry in [
            e for e in switch.fib.entries() if e.source == "static"
        ]:
            switch.fib.withdraw(entry.prefix)


def _no_patch(bundle: Any) -> None:
    """The fault is injected at build time (see ``backup_tie_break``)."""


def _invert_fib_tie_break(bundle: Any) -> None:
    """Make every FIB yield *shortest*-prefix-first: the resolver now
    prefers the /15-/16 statics over live routed /24s."""
    for switch in bundle.network.switches():
        fib = switch.fib

        def shortest_first(address: Any, _fib: Any = fib) -> Any:
            matching = [
                e for e in _fib.entries() if e.prefix.contains(address)
            ]
            matching.sort(key=lambda e: e.prefix.length)
            return iter(matching)

        fib.matches = shortest_first


def _drop_lsa_relays(bundle: Any) -> None:
    """Kill LSA relaying (direct floods from the originator still go
    out): routers far from a failure keep permanently stale LSDBs."""
    for protocol in bundle.protocols.values():
        original = protocol._flood

        def relay_blackout(
            lsas: Any, exclude: Any, _original: Any = original
        ) -> Any:
            if exclude is not None:
                return
            _original(lsas, exclude)

        protocol._flood = relay_blackout


def _disable_failure_detection(bundle: Any) -> None:
    """Blind every link-liveness detector: the control plane never hears
    about the failure, so the black hole outlives any bound."""
    for link in bundle.network.links:
        for detector in link._detectors.values():
            detector.observe = lambda up: None


def _corrupt_spf_engine(bundle: Any) -> None:
    """Sabotage every protocol instance's SPF engine: each table it
    answers with has its ECMP route sets truncated to a single (valid
    shortest-path) member.  The truncation keeps forwarding loop-free and
    live — only the convergence-agreement differential can see it.  It
    is made *in a copy*: the engine's table is the shared memo's own
    object, the very one the global oracle reads."""
    for protocol in bundle.protocols.values():
        engine = protocol._spf_engine

        def corrupted(lsdb: Any, kind: str, _compute: Any = engine.compute) -> Any:
            return {
                prefix: hops if len(hops) <= 1 else (min(hops),)
                for prefix, hops in _compute(lsdb, kind).items()
            }

        engine.compute = corrupted


def _leak_one_channel(bundle: Any) -> None:
    """Make one directed channel swallow packets without accounting:
    conservation (sent = delivered + dropped) breaks on that channel."""
    topo = bundle.topology
    agg = topo.pod_members(NodeKind.AGG, 1)[0].name
    tor = topo.pod_members(NodeKind.TOR, 1)[0].name
    channel = bundle.network.link_between(agg, tor).channel_from(agg)
    channel._deliver = lambda packet, epoch: None


# ---------------------------------------------------------------- registry

MUTANTS: Dict[str, FaultMutant] = {}


def _register(mutant: FaultMutant) -> FaultMutant:
    MUTANTS[mutant.name] = mutant
    return mutant


_register(FaultMutant(
    name="backup-routes-disabled",
    invariant=FRR_WINDOW,
    description="ring backup routes withdrawn after convergence; "
                "condition 1 can no longer fast-reroute",
    config_factory=lambda: _scenario_config("f2tree", 6, "C1"),
    apply=_withdraw_static_routes,
))

_register(FaultMutant(
    name="backup-tiebreak-none",
    invariant=LOOP_FREEDOM,
    description="backup routes installed as one /16 ECMP group instead "
                "of the /16-right + /15-left prefix-length rule; the "
                "condition 4 pattern ping-pongs on the ring",
    config_factory=lambda: _events_config("f2tree", 6, "C4"),
    apply=_no_patch,
    backup_tie_break="none",
))

_register(FaultMutant(
    name="fib-tiebreak-inverted",
    invariant=FIB_CONSISTENCY,
    description="FIB match order inverted to shortest-prefix-first on "
                "every switch",
    config_factory=lambda: _quiet_config("f2tree", 6),
    apply=_invert_fib_tie_break,
))

_register(FaultMutant(
    name="lsa-flood-dropped",
    invariant=CONVERGENCE_AGREEMENT,
    description="LSA relaying disabled; distant routers converge on a "
                "stale LSDB that disagrees with the global SPF oracle",
    config_factory=lambda: _events_config("f2tree", 6, "C4"),
    apply=_drop_lsa_relays,
))

_register(FaultMutant(
    name="spf-engine-corrupted",
    invariant=CONVERGENCE_AGREEMENT,
    description="every protocol SPF engine truncates each ECMP route "
                "to one next hop; installed routes disagree with the "
                "full-ECMP global SPF oracle after reconvergence",
    config_factory=lambda: _events_config("f2tree", 6, "C1"),
    apply=_corrupt_spf_engine,
))

_register(FaultMutant(
    name="detection-disabled",
    invariant=BLACKHOLE_BOUND,
    description="link-failure detectors blinded; the black hole outlives "
                "the quiescence bound although a physical path survives",
    config_factory=lambda: _events_config("fat-tree", 4, "C1"),
    apply=_disable_failure_detection,
))

_register(FaultMutant(
    name="channel-leak",
    invariant=SIM_SANITY,
    description="one directed channel silently swallows packets, "
                "breaking per-channel packet conservation",
    config_factory=lambda: _events_config("fat-tree", 4, "C1"),
    apply=_leak_one_channel,
))


# ---------------------------------------------------------------- self-test


def diagonals() -> List[Diagonal]:
    """The ``check`` oracle's diagonals, in name order."""
    return [fault_diagonal(MUTANTS[name], "check", _violated) for name in sorted(MUTANTS)]


def _violated(config: TrialConfig, mutant: Optional[FaultMutant]) -> Fired:
    return tuple(execute_check(config, mutant=mutant).invariants_violated)


def fault_diagonal(
    mutant: FaultMutant, oracle: str, fired: Callable[[TrialConfig, Optional[FaultMutant]], Fired]
) -> Diagonal:
    """``mutant`` as an exact diagonal: ``fired`` runs its config clean
    (no mutant) and mutated."""
    config = mutant.config_factory()
    return Diagonal(
        name=mutant.name,
        oracle=oracle,
        expected=mutant.invariant,
        match=EXACT,
        baseline=config.canonical_json(),
        clean=lambda: fired(config, None),
        mutated=lambda: fired(config, mutant),
    )
