"""Validation of the fluid model's recompute on persistent solver state.

The model (:mod:`repro.sim.flow.model`, DESIGN §13) keeps its solver
input between recomputes — sorted active flows, incidence rows interned
at path resolution, demand caps updated in one pass — and skips the
solve when no input moved.  All of that is bookkeeping: after *every*
recompute the rates in force must be exactly what a solve from scratch
would give.  This file pins that, and the schedule the bookkeeping must
not disturb:

1. **From-scratch oracle** (hypothesis) — mesh flows, mixed
   reliable/CBR, random link flaps: after each recompute rebuild the
   ``paths``/``capacity``/``demand`` dicts from the model's active flows
   and path cache, solve them with the python engine, and require the
   model's rates to be *bitwise* equal.
2. **Schedule pin** — a seeded Fig 6 cell's recompute / resolution /
   solve counts, recorded before the recompute was rebuilt, and its
   event count on a warm-started bundle.
3. **No input moved, no solve** — a recompute that changes nothing the
   solver sees performs zero ``max_min_rates`` calls.
4. **Cache accounting** — a change re-resolves only the flows whose
   cached path consulted a changed node.
5. **Mutant seam** — both fair-share mutants still bite through
   ``model.solver``.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check.differential import FLOW_MUTANTS, run_flow_selftest
from repro.dataplane.network import Network
from repro.dataplane.params import NetworkParams
from repro.experiments.partition_aggregate import (
    PartitionAggregateConfig,
    run_flow_partition_aggregate,
)
from repro.sim.engine import Simulator
from repro.sim.flow import fairshare, model as flow_model
from repro.sim.flow.model import FluidTrafficModel
from repro.sim.flow.warmstart import warm_start_linkstate
from repro.sim.units import milliseconds, seconds
from repro.topology.fattree import fat_tree


def _build_model() -> tuple[Simulator, Network, FluidTrafficModel]:
    topo = fat_tree(4)
    sim = Simulator()
    network = Network(topo, sim, NetworkParams(backend="flow"))
    warm_start_linkstate(network)
    return sim, network, FluidTrafficModel(network)


def _hosts(network: Network) -> list[str]:
    return sorted(name for name in network.nodes if name.startswith("h"))


def _add_mesh_flows(model: FluidTrafficModel, hosts: list[str], count: int) -> None:
    """Mixed reliable/CBR flows over a stride of the host mesh.  Every
    other flow offers far less than its fair share: a reliable one of
    those builds a backlog only during an outage and drains it
    afterwards, so its demand cap flips both ways; the heavy ones stay
    bottlenecked (backlogged) throughout."""
    pairs = [(a, b) for a, b in itertools.product(hosts, hosts) if a != b]
    for i, (src, dst) in enumerate(pairs[:: len(pairs) // count][:count]):
        model.add_cbr_flow(
            f"f{i:03d}", src, dst, dport=5000 + i, sport=40000 + i,
            packet_bytes=1448, interval=20_000 if i % 2 else 2_000_000,
            start=milliseconds(1) + i * 1000,
            stop=milliseconds(300) - (i % 5) * 1_000_000,
            reliable=(i % 3 == 0),
        )


# --------------------------------------------- 1. from-scratch oracle


def oracle_rates(model: FluidTrafficModel) -> dict[str, float]:
    """What a solve from nothing but the model's flows and cached paths
    gives right now: the dict-form solver input the model used to build
    on every solve, through the python reference engine."""
    now = model.sim.now
    bytes_per_ns = model.params.link_rate_gbps / 8.0
    paths, capacity, demand = {}, {}, {}
    for name, flow in sorted(model._active.items()):
        cached = model._path_cache.get(name)
        if cached is None or cached.links is None:
            continue
        paths[name] = cached.links
        for link in cached.links:
            capacity[link] = bytes_per_ns
        spec = flow.spec
        draining = spec.reliable and (
            flow.offered_bytes(now) - flow.delivered > 0.5 or now >= spec.stop
        )
        if not draining:
            demand[name] = spec.demand
    return fairshare.max_min_rates(paths, capacity, demand, engine="python")


def _check_against_oracle_after_every_recompute(model: FluidTrafficModel) -> list[int]:
    """Wrap ``model._recompute`` (the instance attribute shadows the
    method for the model's own ``self._recompute()`` calls too)."""
    checked: list[int] = []
    recompute = model._recompute

    def checked_recompute() -> None:
        recompute()
        want = oracle_rates(model)
        got = model._last_rates
        assert sorted(got) == sorted(want), model.sim.now
        for name, rate in want.items():
            assert got[name].hex() == rate.hex(), (model.sim.now, name)
            # and the rate is the one in force on the flow's timeline
            assert model.flows[name].segments[-1].rate.hex() == rate.hex()
        checked.append(model.sim.now)

    model._recompute = checked_recompute
    return checked


_flap = st.tuples(
    st.integers(min_value=0, max_value=63),   # link index (mod #links)
    st.integers(min_value=20, max_value=250),  # fail instant, ms
    st.integers(min_value=5, max_value=80),    # hold before restore, ms
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(flaps=st.lists(_flap, max_size=4))
def test_rates_equal_from_scratch_oracle_after_every_recompute(flaps):
    sim, network, model = _build_model()
    checked = _check_against_oracle_after_every_recompute(model)
    _add_mesh_flows(model, _hosts(network), 40)
    links = sorted(
        network.links, key=lambda link: (link.node_a.name, link.node_b.name)
    )
    for index, fail_ms, hold_ms in flaps:
        link = links[index % len(links)]
        sim.schedule_at(milliseconds(fail_ms), link.fail)
        sim.schedule_at(milliseconds(fail_ms + hold_ms), link.restore)
    sim.run(until=milliseconds(350))
    model.finalize()
    stats = model.stats()
    assert len(checked) == stats["recomputes"] >= 80  # 40 starts + 40 stops
    # the early exit is exercised, not just the solve
    assert 0 < stats["full_solves"] < stats["recomputes"]
    assert stats["incremental_solves"] == 0


# ------------------------------------------------- 2. schedule pin


def test_fig6_cell_schedule_is_pinned(monkeypatch):
    """The recompute *schedule* of a seeded Fig 6 cell.  ``flows``,
    ``recomputes``, ``path_resolutions``, ``path_cache_hits``, the solve
    count and ``n_failures`` are verbatim from before the recompute was
    rebuilt on persistent state (commit e9fd776): a rebuild may change
    what a recompute costs, never when one happens, how many paths it
    re-resolves or how many solves run.  ``notifications`` and
    ``events_processed`` moved once, when fluid bundles began to start
    warm (the change after b29bb40): 240 -> 220 is the V = 20 cold-start
    FIB downloads that no longer notify the model, 15 474 -> 12 734 the
    initial LSA flood that is no longer simulated."""
    models: list[FluidTrafficModel] = []
    init = FluidTrafficModel.__init__

    def capturing_init(self, network):
        init(self, network)
        models.append(self)

    monkeypatch.setattr(FluidTrafficModel, "__init__", capturing_init)
    config = PartitionAggregateConfig(
        duration=seconds(4), n_requests=10, n_background_flows=5,
        ports=4, seed=3,
    )
    result = run_flow_partition_aggregate("fat-tree", config)
    (model,) = models
    stats = result.backend_stats
    assert {key: stats[key] for key in model.stats()} == model.stats()
    assert stats["flows"] == 85
    assert stats["notifications"] == 220
    assert stats["recomputes"] == 332
    assert stats["path_resolutions"] == 2179
    assert stats["path_cache_hits"] == 10618
    assert stats["full_solves"] + stats["incremental_solves"] == 202
    assert model.sim.events_processed == 12734
    assert result.n_failures == 40


# ---------------------------------------- 3. no input moved, no solve


def test_recompute_without_moved_input_does_not_solve(monkeypatch):
    calls: list[int] = []
    solve = fairshare.max_min_rates

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return solve(*args, **kwargs)

    # the model reaches the solver through its module-level name
    monkeypatch.setattr(flow_model, "max_min_rates", counting)
    sim, network, model = _build_model()
    hosts = _hosts(network)
    model.add_cbr_flow(
        "cbr", hosts[0], hosts[-1], dport=5000, sport=40000,
        interval=20_000, start=milliseconds(1), stop=milliseconds(200),
    )
    model.add_paced_flow(
        "paced", hosts[1], hosts[-2], dport=5001, sport=40001,
        interval=20_000, start=milliseconds(1), stop=milliseconds(200),
    )
    sim.run(until=milliseconds(50))
    assert calls == [1, 2]  # one solve per activation
    before = model.stats()
    segments = {name: list(flow.segments) for name, flow in model.flows.items()}

    # a link nobody's path crosses flaps: listeners fire, a recompute
    # runs, both cached paths stay valid and no demand cap flips
    used = {
        frozenset(link) for name in ("cbr", "paced")
        for link in model._path_cache[name].links
    }
    idle = next(
        link for link in network.links
        if frozenset((link.node_a.name, link.node_b.name)) not in used
        and not {link.node_a.name, link.node_b.name} & set(hosts)
    )
    sim.schedule_at(milliseconds(60), idle.fail)
    sim.run(until=milliseconds(61))
    after = model.stats()
    assert after["recomputes"] == before["recomputes"] + 1
    assert after["full_solves"] == before["full_solves"]
    assert calls == [1, 2]
    assert {n: list(f.segments) for n, f in model.flows.items()} == segments

    # whereas a recompute the solver does need to see still solves:
    # the CBR flow stops, its share of any common link is released
    sim.run(until=milliseconds(201))
    assert len(calls) > 2


# ----------------------------------------------- 4. cache accounting


def test_path_cache_reresolves_only_affected_flows():
    sim, network, model = _build_model()
    hosts = _hosts(network)
    # near: inter-rack within pod 0 (its path climbs to an agg switch);
    # far: rack-local in pod 3 — node-disjoint from anything in pod 0
    model.add_cbr_flow(
        "near", hosts[0], hosts[2], dport=5000, sport=40000,
        interval=20_000, start=milliseconds(1), stop=milliseconds(280),
    )
    model.add_cbr_flow(
        "far", hosts[-2], hosts[-1], dport=5001, sport=40001,
        interval=20_000, start=milliseconds(1), stop=milliseconds(280),
    )
    sim.run(until=milliseconds(50))
    assert model.path_resolutions == 2  # one per activation
    near_path = model._path_cache["near"]
    far_path = model._path_cache["far"]
    assert near_path.links is not None and len(near_path.links) == 4
    assert set(near_path.visited).isdisjoint(far_path.visited)

    # fail the tor->agg link the near flow resolved through; until the
    # SPF throttle reconverges the fabric (past this test's horizon),
    # the only nodes that change are on the near flow's path
    tor, agg = near_path.links[1]
    victim = network.links_between(tor, agg)[0]
    sim.schedule_at(milliseconds(60), victim.fail)
    sim.run(until=milliseconds(280))
    assert model._path_cache["far"] is far_path
    assert model._path_cache["near"] is not near_path
    assert model.path_cache_hits > 0
    # the near flow saw the outage (until detection reroutes it around
    # the dead agg), the far flow never did
    model.finalize()
    assert model.flows["near"].outage_intervals() != []
    assert model.flows["far"].outage_intervals() == []


# --------------------------------------------------- 5. mutant seam


def test_flow_selftest_catches_both_solver_mutants():
    """``model.solver`` now takes the model's prebuilt incidence; the
    starved and the vector-engine mutants must still corrupt it and be
    caught by backend agreement."""
    assert {"flow-fairshare-corrupted", "fairshare-vector-corrupted"} <= set(
        FLOW_MUTANTS
    )
    results = {result.name: result for result in run_flow_selftest()}
    for name in ("flow-fairshare-corrupted", "fairshare-vector-corrupted"):
        assert results[name].ok, results[name]
