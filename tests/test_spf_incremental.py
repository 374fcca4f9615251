"""The per-origin SPF engine against both whole-table computers.

Routes are computed two ways — per-origin Dijkstra behind each engine's
own fingerprint memo (:mod:`repro.routing.spf_cache`) and one batch
solve per database (:mod:`repro.routing.spf_batch`) — and each is the
other's differential oracle.  This file pins the per-origin side at
three levels (its name and test ids predate the deletion of single-edge
SPF patching; they are the suite's floor ids):

1. **Three-way equality under churn** (hypothesis) — random sequences of
   link fail/restore events on all four topology families (f2tree,
   fat-tree, leaf-spine, VL2): after every LSDB delta, each switch's
   :class:`SpfEngine` table equals :func:`compute_routes` and
   :func:`batch_compute_routes`, multi-edge batches and advertisement
   changes included.
2. **Classification** — the logical delta taxonomy (refresh / cosmetic /
   link-down / link-up / structural) matches the actual fingerprint
   transition, an engine handed ``refresh`` or ``cosmetic`` hands back
   the table object already held, and the taxonomy does not depend on
   how the table was computed (it feeds byte-identical traces).
3. **Whole-system traces** — a full recovery check trial with every
   engine's memo bypassed produces a byte-identical obs trace: no
   observable behaviour depends on it.
"""

from __future__ import annotations

import itertools
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.f2tree import f2tree
from repro.net.ip import Prefix
from repro.routing.lsdb import Lsa, Lsdb
from repro.routing.spf import compute_routes
from repro.routing.spf_batch import batch_compute_routes
from repro.routing.spf_cache import (
    COSMETIC,
    INITIAL,
    LINK_DOWN,
    LINK_UP,
    REFRESH,
    STRUCTURAL,
    SpfEngine,
    classify_transition,
)
from repro.topology.addressing import assign_addresses
from repro.topology.fattree import fat_tree
from repro.topology.leafspine import leaf_spine
from repro.topology.vl2 import vl2

# ------------------------------------------------------------ environments

_FAMILIES = {
    "f2tree": lambda: f2tree(6, hosts_per_tor=1),
    "fat-tree": lambda: fat_tree(4),
    "leaf-spine": lambda: leaf_spine(4, 3, hosts_per_leaf=1),
    "vl2": lambda: vl2(4, 4, hosts_per_tor=1),
}

_ENVS: dict = {}


def _environment(family: str):
    """Switch adjacency + advertised prefixes for one topology family
    (built once; examples only read it)."""
    env = _ENVS.get(family)
    if env is not None:
        return env
    topo = _FAMILIES[family]()
    assign_addresses(topo)  # the ToR subnets every table routes to
    switches = sorted(n.name for n in topo.switches())
    adjacency = {name: set() for name in switches}
    for link in topo.links.values():
        if link.a in adjacency and link.b in adjacency:
            adjacency[link.a].add(link.b)
            adjacency[link.b].add(link.a)
    prefixes = {
        t.name: (t.subnet,) for t in topo.tors() if t.subnet is not None
    }
    edges = sorted(
        {tuple(sorted((a, b))) for a in adjacency for b in adjacency[a]}
    )
    env = {
        "switches": switches,
        "adjacency": adjacency,
        "prefixes": prefixes,
        "edges": edges,
    }
    _ENVS[family] = env
    return env


def _lsdb(env, down: set, extra_prefixes: dict, seq: int) -> Lsdb:
    db = Lsdb()
    for name in env["switches"]:
        neighbors = tuple(sorted(
            peer for peer in env["adjacency"][name]
            if tuple(sorted((name, peer))) not in down
        ))
        prefs = env["prefixes"].get(name, ())
        prefs = prefs + tuple(extra_prefixes.get(name, ()))
        db.insert(Lsa(origin=name, seq=seq, neighbors=neighbors, prefixes=prefs))
    return db


def _assert_equals_oracle(engines, previous, db, context):
    """Every engine fed ``db`` as the protocol feeds it (the transition
    from ``previous`` classified first) answers the oracle's table."""
    batch = batch_compute_routes(db)
    kind = classify_transition(previous, db.fingerprint())
    for name, engine in engines.items():
        oracle = compute_routes(name, db)
        assert engine.compute(db, kind) == oracle, (context, name, kind)
        assert batch[name] == oracle, (context, name)
        assert engine.routes(db) == oracle, (context, name)
    return db.fingerprint()


def _bypass_engine_memos(patches):
    """Every engine computes each table afresh: its memo is never read."""
    patches.setattr(
        SpfEngine, "routes", lambda engine, lsdb: compute_routes(engine.origin, lsdb)
    )


# ------------------------------------------ 1. three-way equality under churn

#: one churn step: flip 1 link (link-down / link-up), flip a batch
#: (structural), or toggle an extra advertised prefix (structural)
_STEP = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10_000)),
    st.tuples(st.just("batch"), st.integers(0, 10_000), st.integers(2, 3)),
    st.tuples(st.just("advertise"), st.integers(0, 10_000)),
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(sorted(_FAMILIES)),
    steps=st.lists(_STEP, min_size=1, max_size=8),
)
def test_incremental_equals_full_spf_under_churn(family, steps):
    env = _environment(family)
    engines = {s: SpfEngine(s) for s in env["switches"]}
    seq = itertools.count(1)
    down: set = set()
    extra: dict = {}

    db = _lsdb(env, down, extra, next(seq))
    seen = _assert_equals_oracle(engines, None, db, (family, "initial"))

    for index, step in enumerate(steps):
        if step[0] == "flip":
            edge = env["edges"][step[1] % len(env["edges"])]
            down.symmetric_difference_update({edge})
        elif step[0] == "batch":
            _, pick, count = step
            for offset in range(count):
                edge = env["edges"][(pick + offset * 7) % len(env["edges"])]
                down.symmetric_difference_update({edge})
        else:
            name = env["switches"][step[1] % len(env["switches"])]
            if name in extra:
                del extra[name]
            else:
                extra[name] = (Prefix(0x0B000000 + (step[1] % 200) * 256, 24),)
        db = _lsdb(env, down, extra, next(seq))
        seen = _assert_equals_oracle(engines, seen, db, (family, index, step))


def test_cache_eviction_keeps_results_correct():
    """An engine keeps every table it computed for its lifetime: a flap
    that returns to earlier content (A→B→A) gets back the very table
    object computed for A, still equal to a fresh computation."""
    env = _environment("fat-tree")
    engines = {name: SpfEngine(name) for name in env["switches"]}
    seq = itertools.count(1)
    edge = env["edges"][0]
    states = [set(), {edge}, set()]
    tables = []
    for down in states:
        db = _lsdb(env, down, {}, next(seq))
        tables.append({name: engine.routes(db) for name, engine in engines.items()})
        for name in env["switches"]:
            assert tables[-1][name] == compute_routes(name, db)
    first, _, revisited = tables
    assert all(revisited[name] is first[name] for name in env["switches"])
    assert any(tables[1][name] != first[name] for name in env["switches"])


# --------------------------------------------------------- 2. classification


def _fingerprint(env, down, extra, seq=1):
    return _lsdb(env, down, extra, seq).fingerprint()


def test_classification_taxonomy():
    env = _environment("f2tree")
    base = _fingerprint(env, set(), {})
    edge = env["edges"][0]

    # seq-only refresh: identical fingerprint
    assert classify_transition(base, base) == REFRESH
    # single link down / back up
    one_down = _fingerprint(env, {edge}, {})
    assert classify_transition(base, one_down) == LINK_DOWN
    assert classify_transition(one_down, base) == LINK_UP
    # two links at once: structural
    two_down = _fingerprint(env, set(env["edges"][:2]), {})
    assert classify_transition(base, two_down) == STRUCTURAL
    # advertisement change: structural
    advertised = _fingerprint(
        env, set(), {env["switches"][0]: (Prefix(0x0B000000, 24),)}
    )
    assert classify_transition(base, advertised) == STRUCTURAL


def test_cosmetic_transition_detected():
    """The *second* endpoint of a failed link re-originating is cosmetic:
    the first endpoint's withdrawal already removed the two-way edge, so
    the straggler's update changes the fingerprint but not the graph."""
    env = _environment("f2tree")
    a, b = env["edges"][0]
    db = _lsdb(env, set(), {}, 1)
    base = db.fingerprint()

    def drop(source_fp, origin, peer, seq):
        out = Lsdb()
        for node, neighbors, prefixes in source_fp:
            if node == origin:
                neighbors = tuple(p for p in neighbors if p != peer)
            out.insert(Lsa(origin=node, seq=seq, neighbors=neighbors,
                           prefixes=prefixes))
        return out

    half = drop(base, a, b, seq=2)        # a withdrew b: two-way edge gone
    both = drop(half.fingerprint(), b, a, seq=3)  # b catches up: no-op graph
    assert classify_transition(base, half.fingerprint()) == LINK_DOWN
    assert classify_transition(half.fingerprint(), both.fingerprint()) == COSMETIC

    origin = env["switches"][0]
    engine = SpfEngine(origin)
    assert classify_transition(None, base) == INITIAL
    engine.compute(db, INITIAL)
    mid = engine.compute(half, LINK_DOWN)
    final = engine.compute(both, COSMETIC)
    assert mid is final
    assert final == compute_routes(origin, both)


def test_report_taxonomy_is_execution_independent(monkeypatch):
    """The transition kinds — they feed byte-identical traces — and the
    tables are the same with an engine's memo cold, warm, or bypassed
    for plain ``compute_routes``."""
    import repro.routing.spf_cache as spf_cache_module

    env = _environment("fat-tree")
    origin = env["switches"][0]
    seq = itertools.count(1)
    scripts = []
    down: set = set()
    for edge in env["edges"][:4]:
        down.symmetric_difference_update({edge})
        scripts.append(_lsdb(env, down, {}, next(seq)))
    scripts.append(_lsdb(env, down, {}, next(seq)))  # seq-only refresh
    scripts.append(_lsdb(env, set(), {}, next(seq)))  # four links back up

    def run(engine):
        out, previous = [], None
        for db in scripts:
            kind = classify_transition(previous, db.fingerprint())
            previous = db.fingerprint()
            out.append((engine.compute(db, kind), kind))
        return out

    computed = []

    def counting(name, lsdb):
        computed.append(name)
        return compute_routes(name, lsdb)

    engine = SpfEngine(origin)
    with monkeypatch.context() as patches:
        patches.setattr(spf_cache_module, "compute_routes", counting)
        cold = run(engine)
        misses = len(computed)
        warm = run(engine)
    assert misses > 0 and len(computed) == misses  # the warm pass computed nothing
    with monkeypatch.context() as patches:
        _bypass_engine_memos(patches)
        bypassed = run(SpfEngine(origin))
    assert cold == warm == bypassed
    assert [kind for _, kind in cold] == [
        INITIAL, LINK_DOWN, LINK_DOWN, LINK_DOWN, REFRESH, STRUCTURAL,
    ]


def test_engine_refresh_reuses_state():
    """``refresh`` and ``cosmetic`` leave every route alone, so an engine
    handed either hands back the table object it already holds — the
    identity the FIB download reads as "no change"."""
    env = _environment("vl2")
    origin = env["switches"][0]
    a, b = env["edges"][0]
    engine = SpfEngine(origin)
    db1 = _lsdb(env, set(), {}, 1)
    db2 = _lsdb(env, set(), {}, 2)  # seq bump only: same fingerprint
    # only ``a`` withdraws the link (the two-way edge is gone), then
    # ``b`` catches up: a new fingerprint over the same graph
    half = _lsdb(env, set(), {}, 3)
    lsa = half.get(a)
    half.insert(Lsa(a, 4, tuple(p for p in lsa.neighbors if p != b), lsa.prefixes))
    both = _lsdb(env, {(a, b)}, {}, 5)
    kinds, previous = [], None
    for db in (db1, db2, half, both):
        kinds.append(classify_transition(previous, db.fingerprint()))
        previous = db.fingerprint()
    assert kinds == [INITIAL, REFRESH, LINK_DOWN, COSMETIC]
    first, second, third, fourth = (
        engine.compute(db, kind)
        for db, kind in zip((db1, db2, half, both), kinds)
    )
    assert first is second  # the exact same table object is reused
    assert third is fourth
    assert fourth == compute_routes(origin, both)


# ------------------------------------------------ 3. whole-system trace


def test_recovery_trace_identical_with_incremental_disabled(monkeypatch):
    """A full recovery trial must emit the byte-identical obs trace, the
    same violations, and the same stats whether SPF answers come from
    the engines' memos or every one is a fresh Dijkstra (protocol
    engines *and* the convergence-agreement oracle's)."""
    from repro.check.config import TrialConfig, fast_overrides
    from repro.check.execute import execute_check
    from repro.sim.units import milliseconds

    config = TrialConfig(
        "f2tree", 6, profile="scenario", scenario="C1",
        overrides=fast_overrides(), warmup=milliseconds(500),
    )
    fast = execute_check(config, traced=True)

    with monkeypatch.context() as patches:
        _bypass_engine_memos(patches)
        slow = execute_check(config, traced=True)

    assert fast.violations == slow.violations == []
    assert fast.stats == slow.stats
    assert json.dumps(fast.trace, sort_keys=True) == \
        json.dumps(slow.trace, sort_keys=True)
    assert json.dumps(fast.spans, sort_keys=True) == \
        json.dumps(slow.spans, sort_keys=True)
