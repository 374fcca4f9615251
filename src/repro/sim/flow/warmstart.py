"""Batch warm start: a pre-converged control plane for large fabrics.

Event-driven initial convergence floods every switch's LSA across every
link — O(V·E) control-packet events, which is 40M+ at k=32 and the real
reason the packet backend cannot touch production scales.  But the
converged *outcome* is a pure function of the topology: every switch
ends up with the same LSDB, and its routes are exactly
:func:`repro.routing.spf.compute_routes` on it.  So this module builds
that outcome directly:

1. protocol instances are constructed exactly as
   :func:`repro.routing.linkstate.deploy_linkstate` does — but never
   ``start()``-ed, so no flooding events exist;
2. the converged LSDB (one seq-1 LSA per switch) is written into every
   instance;
3. all route tables come from one :func:`repro.routing.spf_batch.
   batch_compute_routes` run and are bulk-loaded into the FIBs;
4. each instance's SPF engine is replaced by a shared
   :class:`BatchRouteOracle` engine, so *post-failure* SPF runs — which
   all see the same flooded LSDB — cost one batch computation for the
   whole fabric instead of V sequential Dijkstras.

After warm start the simulator clock is still wherever it was and the
event queue is untouched: failures, detection, flooding of the *change*,
SPF throttling and FIB downloads all proceed event-driven exactly as on
a conventionally-converged network.  ``tests/test_flow_backend.py``
pins that equivalence: on small fabrics the warm-started FIBs are
identical to event-driven convergence.

Two callers: :func:`repro.experiments.common.build_bundle` warm-starts
every ``backend="flow"`` link-state bundle (loopbacks advertised, so the
fluid bundle and its cold-started packet twin hold identical FIBs — the
packet cold start is the reference the cross-backend differential
compares against), and :func:`repro.experiments.flowscale.
run_flow_scale_trial` warm-starts its k=24..48 fabrics without
loopbacks.  A warm instance has never run SPF, so its throttle sits in
the quiet state a cold instance returns to once its hold window has
expired — the two behave identically from ``spf_initial_delay +
spf_hold`` after the cold start's last SPF run, which
``DEFAULT_WARMUP`` exceeds.

The module reaches into ``LinkStateProtocol``'s private warm state
(``_seq``, ``_table``, ``_spf_engine``) deliberately — it is the
protocol's second constructor, not an external consumer.  Nobody
mutates a route table once an engine has returned it, so one object is
what the oracle caches, what a switch (or several) holds as its
download, and what the next batch run may hand out again.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cache
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ...net.fib import FibEntry
from ...net.ip import Prefix
from ...routing.linkstate import SOURCE, LinkStateProtocol
from ...routing.lsdb import Lsa, Lsdb
from ...routing.spf import RouteTable
from ...routing.spf_batch import TableMemo, batch_compute_routes
from ...routing.spf_cache import SpfRunReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...dataplane.network import Network


#: fingerprints the oracle keeps: the converged database plus the few a
#: still-flooding fabric shows its earliest SPF timers
_MAX_CACHED = 4


class BatchRouteOracle:
    """Fingerprint-keyed cache of whole-fabric batch SPF results.

    All switches of a converged (or post-flood) fabric share one LSDB
    fingerprint, so one batch computation serves every origin.  A small
    LRU covers the transient where early SPF timers fire on a
    still-flooding database; each run is lent the tables of the one
    before, so an origin a fault left alone keeps its table object.
    """

    def __init__(self, engine: str = "auto") -> None:
        self.engine = engine
        self._cache: "OrderedDict[object, Dict[str, RouteTable]]" = OrderedDict()
        self._memo: TableMemo = {}
        #: lifetime counters (deterministic; surfaced by scale trials)
        self.batch_runs = 0
        self.hits = 0

    def routes(self, lsdb: Lsdb) -> Dict[str, RouteTable]:
        fingerprint = lsdb.fingerprint()
        # pop + re-insert is the LRU touch with one key lookup: the
        # insert meets no equal key, so it never compares V entries
        result = self._cache.pop(fingerprint, None)
        if result is not None:
            self.hits += 1
        else:
            self.batch_runs += 1
            result = batch_compute_routes(lsdb, self.engine, self._memo)
        self._cache[fingerprint] = result
        while len(self._cache) > _MAX_CACHED:
            self._cache.popitem(last=False)
        return result


#: the one table of every origin the oracle has none for
_NO_ROUTES: RouteTable = {}


class OracleSpfEngine:
    """Drop-in for :class:`~repro.routing.spf_cache.SpfEngine`: answers
    every ``compute`` with the shared batch oracle's own table — like
    every engine's, never to be mutated."""

    def __init__(self, origin: str, oracle: BatchRouteOracle) -> None:
        self.origin = origin
        self.oracle = oracle

    def compute(self, lsdb: Lsdb) -> Tuple[RouteTable, SpfRunReport]:
        routes = self.oracle.routes(lsdb).get(self.origin, _NO_ROUTES)
        return routes, SpfRunReport("batch")


def warm_start_linkstate(
    network: "Network",
    advertise_loopbacks: bool = False,
    oracle: Optional[BatchRouteOracle] = None,
) -> Dict[str, LinkStateProtocol]:
    """Deploy a pre-converged link-state control plane (see module doc).

    The drop-in warm twin of :func:`~repro.routing.linkstate.
    deploy_linkstate` — same instances, same advertisements, same
    converged FIB contents — minus the O(V·E) initial flooding, plus the
    shared batch-SPF oracle.  ``advertise_loopbacks`` defaults to False
    here (unlike ``deploy_linkstate``): at production scale the /32
    loopbacks triple the FIB size without affecting any host-to-host
    path, and the scale benchmark documents that choice.
    """
    from ...dataplane.node import SwitchNode  # local import avoids a cycle

    if oracle is None:
        oracle = BatchRouteOracle()
    instances: Dict[str, LinkStateProtocol] = {}
    for switch in network.switches():
        spec = switch.spec
        advertised: List[Prefix] = []
        if spec.subnet is not None:
            advertised.append(spec.subnet)
        if advertise_loopbacks:
            advertised.append(Prefix(switch.ip, 32))
        switch_neighbors = [
            peer
            for peer in switch.links_by_peer
            if isinstance(network.nodes[peer], SwitchNode)
        ]
        instances[switch.name] = LinkStateProtocol(
            network.sim,
            switch,
            network.params,
            switch_neighbors=switch_neighbors,
            advertised=advertised,
        )

    # the converged database: one seq-1 LSA per switch, exactly what
    # each instance's first origination would have flooded
    lsas: List[Lsa] = []
    for name in sorted(instances):
        protocol = instances[name]
        lsas.append(
            Lsa(
                origin=name,
                seq=1,
                neighbors=protocol._live_protocol_neighbors(),
                prefixes=protocol.advertised,
            )
        )
    reference = Lsdb()
    for lsa in lsas:
        reference.insert(lsa)
    routes_by_origin = oracle.routes(reference)

    # switches of one pod and role route most prefixes over the same next
    # hops, so each distinct (prefix, next_hops) entry is built once and
    # the immutable object shared by every FIB that holds it; batch tables
    # are born in sorted prefix order, so their items are the install batch
    shared_entry = cache(lambda route: FibEntry(*route, source=SOURCE))
    for name in sorted(instances):
        protocol = instances[name]
        protocol.lsdb.load(reference)
        protocol._seq = 1
        protocol.stats.lsas_originated += 1
        protocol._spf_engine = OracleSpfEngine(name, oracle)
        routes = routes_by_origin[name]
        protocol.switch.fib.bulk_load(tuple(map(shared_entry, routes.items())))
        protocol._table = routes
        protocol.stats.fib_installs += 1
    return instances
