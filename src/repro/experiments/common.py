"""Shared experiment machinery.

Builds a ready-to-run bundle from a topology description: simulator,
runtime network, a link-state protocol instance per switch (cold-started
on the packet backend, warm-started on the fluid one), and — when the
topology has across links — the F²Tree backup-route configuration.  Also
provides the paper's host-selection convention ("from the leftmost end
host to the rightmost one") and :func:`trial_heap`, the one heap
lifetime every trial entry point runs inside (the only module of
``repro`` that touches the ``gc`` collector).
"""

from __future__ import annotations

import gc
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional

from ..core.backup_routes import configure_backup_routes
from ..dataplane.network import Network
from ..dataplane.params import NetworkParams
from ..obs import Observability
from ..routing.centralized import (
    CentralizedController,
    ControllerParams,
    deploy_centralized,
)
from ..routing.linkstate import deploy_linkstate
from ..routing.pathvector import PathVectorParams, deploy_pathvector
from ..routing.static import StaticRoute
from ..sim.engine import Simulator
from ..sim.randomness import RandomStreams
from ..sim.units import Time, seconds
from ..topology.graph import LinkKind, Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.flow.model import FluidTrafficModel
    from ..sim.flow.warmstart import BatchRouteOracle

#: default settling time before traffic starts: initial flooding + SPF +
#: FIB install finish well within a second; 3 s also lets the SPF hold
#: window expire so a later failure sees the paper's 200 ms initial timer
DEFAULT_WARMUP: Time = seconds(3)


def full_scale() -> bool:
    """Whether to run paper-scale experiment sizes (REPRO_FULL_SCALE=1)."""
    return os.environ.get("REPRO_FULL_SCALE", "").strip() in ("1", "true", "yes")


def _settled() -> None:
    gc.freeze()
    gc.enable()


def _unmanaged() -> None:
    pass


@contextmanager
def trial_heap() -> Iterator[Callable[[], None]]:
    """One trial's heap lifetime; yields the ``settled()`` hook.

    On entry the previous trial's cycles are collected (so none is
    frozen into this one) and the collector pauses: set-up — topology,
    ``Network``, deploy, backup statics, fluid model — allocates a
    fabric that lives as long as the trial, and a collector pass would
    only re-walk it.  The trial calls ``settled()`` when set-up ends,
    before any simulator event: everything built so far is frozen out
    of every later pass and the collector runs again.  On exit the
    frozen objects are released to the collector and the collector is
    enabled, as it was on entry.  When the collector is already
    disabled, or something is already frozen — a nested trial, or a
    caller managing the collector itself — the lifetime does nothing.
    """
    if not gc.isenabled() or gc.get_freeze_count():
        yield _unmanaged
        return
    gc.collect()
    gc.disable()
    try:
        yield _settled
    finally:
        gc.unfreeze()
        gc.enable()


@dataclass
class Bundle:
    """Everything needed to run an experiment on one network."""

    topology: Topology
    sim: Simulator
    network: Network
    #: per-switch routing agents (link-state, path-vector or centralized)
    protocols: Dict[str, object]
    backup_config: Optional[Dict[str, List[StaticRoute]]]
    streams: RandomStreams
    routing: str = "linkstate"
    #: the global controller when ``routing == 'centralized'``
    controller: Optional[CentralizedController] = None
    #: the fluid data plane when ``params.backend == 'flow'``
    flow_model: Optional[FluidTrafficModel] = None
    #: the shared batch-SPF oracle behind a warm-started link-state
    #: control plane (read-only provenance: its run / hit counters);
    #: ``None`` for cold-started bundles
    route_oracle: Optional[BatchRouteOracle] = None

    def converge(self, until: Time = DEFAULT_WARMUP) -> None:
        """Run the control plane until the network has settled."""
        self.sim.run(until=until)

    @property
    def obs(self) -> Observability:
        """The simulator's observability facade (trace + metrics)."""
        return self.sim.obs


def build_bundle(
    topology: Topology,
    params: Optional[NetworkParams] = None,
    seed: int = 1,
    backup_tie_break: str = "prefix-length",
    routing: str = "linkstate",
    routing_options: Optional[object] = None,
    obs: Optional[Observability] = None,
    sim: Optional[Simulator] = None,
    backup_on_error: str = "raise",
) -> Bundle:
    """Instantiate a network with a control plane (and backup routes if
    F²-style).

    ``routing`` selects the control plane: ``linkstate`` (the paper's
    OSPF setting), ``pathvector`` (the §V BGP setting;
    ``routing_options`` is a :class:`~repro.routing.pathvector.PathVectorParams`),
    or ``centralized`` (the §V SDN setting; ``routing_options`` is a
    :class:`~repro.routing.centralized.ControllerParams`).
    The backend selects the start as well as the data plane: a
    link-state bundle with ``params.backend == "flow"`` is **warm
    started** (:func:`~repro.sim.flow.warmstart.warm_start_linkstate`,
    loopbacks advertised) — converged at construction with no simulator
    event, its SPF backed by the shared oracle kept on
    :attr:`Bundle.route_oracle` — while a packet bundle floods its way
    to convergence event by event and is the reference the fluid one is
    compared against.  From ``DEFAULT_WARMUP`` on the two hold identical
    FIBs and LSDBs and throttle SPF identically.
    ``obs`` attaches an :class:`~repro.obs.Observability` facade to the
    simulator (pass ``Observability(enabled=True)`` to record a trace);
    omitted, the bundle gets the disabled no-op default.
    ``sim`` substitutes a pre-built simulator (e.g. the instrumented
    :class:`~repro.check.execute.CheckedSimulator`); ``obs`` is ignored
    in that case — the provided simulator keeps its own facade.
    ``backup_on_error='skip'`` tolerates switches with underivable ring
    configs (used to replay miswiring counterexamples on deliberately
    broken topologies).
    """
    if sim is None:
        sim = Simulator(obs=obs)
    network = Network(topology, sim, params)
    backend = network.params.backend
    if backend not in ("packet", "flow"):
        raise ValueError(f"unknown backend {backend!r} (use 'packet' or 'flow')")
    controller: Optional[CentralizedController] = None
    route_oracle: Optional[BatchRouteOracle] = None
    if routing == "linkstate" and backend == "flow":
        # local import: the fluid backend is optional machinery layered
        # on top of the dataplane, not a dependency of every experiment
        from ..sim.flow import warmstart

        route_oracle = warmstart.BatchRouteOracle()
        protocols: Dict[str, object] = dict(
            warmstart.warm_start_linkstate(
                network, advertise_loopbacks=True, oracle=route_oracle
            )
        )
    elif routing == "linkstate":
        protocols = dict(deploy_linkstate(network))
    elif routing == "pathvector":
        options = routing_options
        if options is not None and not isinstance(options, PathVectorParams):
            raise TypeError("pathvector routing expects PathVectorParams options")
        protocols = dict(deploy_pathvector(network, options))
    elif routing == "centralized":
        options = routing_options
        if options is not None and not isinstance(options, ControllerParams):
            raise TypeError("centralized routing expects ControllerParams options")
        controller, agents = deploy_centralized(network, options)
        protocols = dict(agents)
    else:
        raise ValueError(f"unknown routing {routing!r}")
    has_across = any(
        link.kind is LinkKind.ACROSS for link in topology.links.values()
    )
    backup_config = (
        configure_backup_routes(
            network, tie_break=backup_tie_break, on_error=backup_on_error
        )
        if has_across
        else None
    )
    flow_model = None
    if backend == "flow":
        # attached only after the bulk FIB load and the backup statics:
        # neither install batch should fan out route notifications
        from ..sim.flow import FluidTrafficModel

        flow_model = FluidTrafficModel(network)
    return Bundle(
        topology=topology,
        sim=sim,
        network=network,
        protocols=protocols,
        backup_config=backup_config,
        streams=RandomStreams(seed),
        routing=routing,
        controller=controller,
        flow_model=flow_model,
        route_oracle=route_oracle,
    )


def _host_sort_key(name: str) -> tuple:
    return tuple(int(part) if part.isdigit() else part for part in name.split("-"))


def hosts_left_to_right(topology: Topology) -> List[str]:
    """Host names in the left-to-right order of the paper's figures."""
    return sorted((h.name for h in topology.hosts()), key=_host_sort_key)


def leftmost_host(topology: Topology) -> str:
    return hosts_left_to_right(topology)[0]


def rightmost_host(topology: Topology) -> str:
    return hosts_left_to_right(topology)[-1]
