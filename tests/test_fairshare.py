"""Property tests for the max-min fair-share solver.

The fluid backend's whole data plane reduces to
:func:`repro.sim.flow.fairshare.max_min_rates`, so these pin the three
defining properties of a max-min allocation:

* **conservation / feasibility** — no link carries more than its
  capacity, no flow exceeds its demand, and every rate is non-negative;
* **monotonicity** — removing a link (rerouting the flows that crossed
  it onto their remaining links) never *increases* contention for the
  survivors: a flow whose path is untouched keeps at least its rate
  when another flow disappears entirely;
* **order independence** — the allocation is a pure function of the
  (paths, capacities, demands) mappings, never of insertion order.

Plus the classic water-filling shape facts on known instances, so a
regression is attributable, not just "a property failed".
"""

from __future__ import annotations

import inspect
import itertools
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro.routing.spf_batch as spf_batch
import repro.sim.flow.fairshare as fairshare
from repro.sim.flow.fairshare import (
    FairShareError,
    FlowIncidence,
    build_incidence,
    max_min_rates,
)
from repro.sim.flow.warmstart import BatchRouteOracle
from tests.fairshare_reference import link_loads, python_rates

# ------------------------------------------------------------- strategies
#
# Random instances: a handful of links with capacities, flows crossing
# random subsets.  Keeping the universe small (≤6 links, ≤8 flows)
# makes collisions — shared bottlenecks — the common case rather than a
# lottery.

LINKS = ["L0", "L1", "L2", "L3", "L4", "L5"]

capacities = st.fixed_dictionaries(
    {},
    optional={
        link: st.floats(min_value=0.25, max_value=16.0, allow_nan=False)
        for link in LINKS
    },
).filter(lambda caps: len(caps) >= 1)


def _paths_for(caps):
    links = sorted(caps)
    return st.dictionaries(
        keys=st.integers(min_value=0, max_value=7),
        values=st.lists(st.sampled_from(links), min_size=0, max_size=4),
        min_size=1,
        max_size=8,
    )


instances = capacities.flatmap(
    lambda caps: st.tuples(
        st.just(caps),
        _paths_for(caps),
        st.dictionaries(
            keys=st.integers(min_value=0, max_value=7),
            values=st.floats(min_value=0.05, max_value=8.0, allow_nan=False),
            max_size=8,
        ),
    )
)


# ----------------------------------------------------- conservation


@settings(max_examples=200, deadline=None)
@given(instance=instances)
def test_allocation_is_feasible_and_demand_capped(instance):
    caps, paths, demands = instance
    rates = max_min_rates(paths, caps, demands)
    assert set(rates) == set(paths)
    for fid, rate in rates.items():
        assert rate >= 0.0
        if fid in demands and paths[fid]:
            assert rate <= demands[fid] + 1e-9
    loads = link_loads(paths, rates)
    for link, load in loads.items():
        assert load <= caps[link] + 1e-6, f"{link} over capacity"


@settings(max_examples=200, deadline=None)
@given(instance=instances)
def test_elastic_flows_saturate_a_bottleneck(instance):
    """Every elastic flow with a path is *bottlenecked*: some link on
    its path is (numerically) full.  This is the max-min optimality
    half — no flow could be raised without taking from another."""
    caps, paths, demands = instance
    rates = max_min_rates(paths, caps, demands)
    loads = link_loads(paths, rates)
    for fid, links in paths.items():
        if fid in demands or not links:
            continue
        assert any(
            loads[link] >= caps[link] - 1e-6 for link in links
        ), f"elastic flow {fid} is not bottlenecked"


def test_empty_path_flow_is_demand_or_infinite():
    rates = max_min_rates({"a": [], "b": []}, {}, {"a": 3.0})
    assert rates["a"] == 3.0
    assert math.isinf(rates["b"])


def test_unknown_link_raises():
    with pytest.raises(FairShareError):
        max_min_rates({"a": ["nope"]}, {"L0": 1.0})


# ----------------------------------------------------- monotonicity


#
# Max-min is *not* pointwise-monotone — removing a competitor can let a
# shared flow grow, which then takes capacity from a third flow on
# another link (e.g. caps {L0: 1, L5: 2}, elastic flows a:[L0],
# b:[L5], c:[L0, L5]: removing a raises c from 0.5 to 1.0, dropping b
# from 1.5 to 1.0).  The true monotonicity theorems are about the
# *minimum* rate (what max-min maximizes) and each flow's equal-split
# floor, and those are what the solver must satisfy.


@settings(max_examples=200, deadline=None)
@given(instance=instances)
def test_link_removal_never_lowers_the_minimum_rate(instance):
    """Remove one link and drop the flows that crossed it (the fluid
    model's 'path died' outcome).  The survivors' old rates are still
    feasible — only capacity was freed — so the new max-min minimum is
    at least the survivors' old minimum."""
    caps, paths, demands = instance
    used = sorted({link for p in paths.values() for link in p})
    if not used:
        return
    removed = used[0]
    base = max_min_rates(paths, caps, demands)
    survivors = {
        fid: p for fid, p in paths.items() if removed not in p
    }
    if not survivors:
        return
    surviving_demands = {f: d for f, d in demands.items() if f in survivors}
    caps_after = {link: cap for link, cap in caps.items() if link != removed}
    after = max_min_rates(survivors, caps_after, surviving_demands)
    old_min = min(base[fid] for fid in survivors)
    new_min = min(after.values())
    assert new_min >= old_min - 1e-9, (
        f"removing link {removed} lowered the minimum: {old_min} -> {new_min}"
    )


@settings(max_examples=200, deadline=None)
@given(instance=instances)
def test_flow_removal_never_lowers_the_minimum_rate(instance):
    """Same argument with a flow deleted outright: fewer contenders,
    same capacities — the survivors' minimum can only rise."""
    caps, paths, demands = instance
    if len(paths) < 2:
        return
    base = max_min_rates(paths, caps, demands)
    victim = sorted(paths)[0]
    reduced_paths = {fid: p for fid, p in paths.items() if fid != victim}
    reduced_demands = {f: d for f, d in demands.items() if f != victim}
    after = max_min_rates(reduced_paths, caps, reduced_demands)
    old_min = min(base[fid] for fid in reduced_paths)
    new_min = min(after.values())
    assert new_min >= old_min - 1e-9


@settings(max_examples=200, deadline=None)
@given(instance=instances)
def test_every_flow_gets_at_least_its_equal_split_floor(instance):
    """Per-flow guarantee: a flow's rate is never below
    ``min(demand, min over its links of capacity / initial contenders)``
    — freezing other flows can only *raise* a link's per-flow share."""
    caps, paths, demands = instance
    rates = max_min_rates(paths, caps, demands)
    contenders = {}
    for p in paths.values():
        for link in p:
            contenders[link] = contenders.get(link, 0) + 1
    for fid, links in paths.items():
        if not links:
            continue
        floor = min(caps[link] / contenders[link] for link in links)
        if fid in demands:
            floor = min(floor, demands[fid])
        assert rates[fid] >= floor - 1e-9, (
            f"flow {fid} got {rates[fid]}, below its equal-split floor {floor}"
        )


# ----------------------------------------------- order independence


@settings(max_examples=200, deadline=None)
@given(instance=instances, seed=st.randoms(use_true_random=False))
def test_insertion_order_never_matters(instance, seed):
    """The allocation is a pure function of the mappings: feeding the
    same instance through dicts built in shuffled insertion order (and
    with paths as tuples vs lists) yields identical rates."""
    caps, paths, demands = instance
    base = max_min_rates(paths, caps, demands)

    flow_order = list(paths)
    link_order = list(caps)
    demand_order = list(demands)
    seed.shuffle(flow_order)
    seed.shuffle(link_order)
    seed.shuffle(demand_order)
    shuffled = max_min_rates(
        {fid: tuple(paths[fid]) for fid in flow_order},
        {link: caps[link] for link in link_order},
        {fid: demands[fid] for fid in demand_order},
    )
    assert shuffled == base


# ----------------------------------------------- engine equivalence
#
# The vectorized solver's contract is *bitwise* agreement with the
# python reference (same freezing order, same float trajectory — see
# the fairshare module docstring), so these compare with ==, never
# pytest.approx.


@settings(max_examples=250, deadline=None)
@given(instance=instances)
def test_vector_engine_agrees_bitwise_with_python(instance):
    caps, paths, demands = instance
    assert max_min_rates(paths, caps, demands) == python_rates(paths, caps, demands)


def test_vector_engine_agrees_on_a_structured_many_round_instance():
    """A deterministic instance shaped like a large-fabric recompute (many
    capacity classes, mixed capped/elastic, multi-hop paths) — hundreds
    of freezing rounds, which is where the two engines' float
    trajectories would drift if their orders ever differed."""
    n_links, n_flows = 120, 2000
    caps = {f"L{i:03d}": 0.5 + (i % 48) * 0.25 for i in range(n_links)}
    paths = {
        f"f{i:04d}": [f"L{(7 * i + j) % n_links:03d}" for j in range(4)]
        for i in range(n_flows)
    }
    demands = {
        fid: 0.05 + (i % 29) * 0.01
        for i, fid in enumerate(sorted(paths))
        if i % 3 != 0
    }
    assert max_min_rates(paths, caps, demands) == python_rates(paths, caps, demands)


def test_engine_contract_matches_spf_batch():
    """The two numpy kernels share one contract: no engine selector.  A
    stale ``engine=`` fails loudly instead of being honoured or ignored."""
    for api in (max_min_rates, spf_batch.batch_compute_routes, BatchRouteOracle):
        assert "engine" not in inspect.signature(api).parameters, api
    for module in (fairshare, spf_batch):
        assert not {"ENGINES", "_resolve_engine"} & set(vars(module)), module
    # one water-filler under src/: the python one is tests/fairshare_reference.py
    assert not {"_solve_python", "_allocate"} & set(vars(fairshare))
    with pytest.raises(TypeError):
        max_min_rates({"a": []}, {}, engine="python")


def test_numpy_engine_unavailable():
    """Without numpy, ``import repro`` fails at once with one line naming
    numpy and how to install it — no traceback from deep inside a kernel,
    and no silent pure-python fallback."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    blocked = subprocess.run(
        [sys.executable, "-c", 'import sys; sys.modules["numpy"] = None; import repro'],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert blocked.returncode == 1
    assert blocked.stderr.splitlines()[-1] == (
        "ImportError: repro requires numpy; install it with: pip install numpy"
    )
    assert "spf_batch" not in blocked.stderr and "fairshare" not in blocked.stderr


# --------------------------------------------------- incidence layout


def test_incidence_is_canonical_and_counts_repeats():
    inc = build_incidence({"b": ["L1", "L0", "L1"], "a": [], "c": ["L0"]})
    # rows in sorted flow-id order, empty-path flows excluded
    assert inc.flow_ids == ("b", "c")
    assert inc.link_ids == ("L0", "L1")
    assert len(inc) == 2
    # crossings stay in path order with duplicates preserved (a link
    # crossed twice really is contended twice)
    assert inc.row_links(0) == (1, 0, 1)
    assert inc.row_links(1) == (0,)
    assert inc.indptr == (0, 3, 4)


def test_incidence_validation_names_the_flow_and_link():
    with pytest.raises(FairShareError, match=r"'bad'.*'nope'"):
        build_incidence({"bad": ["nope"]}, {"L0": 1.0})


#: (dict-path solver, prebuilt-incidence solver) per row.  The ids are
#: the engine names these rows once selected; ``auto`` is the fluid
#: model's own call measured against the python reference
SOLVER_PAIRS = [
    pytest.param(python_rates, max_min_rates, id="auto"),
    pytest.param(max_min_rates, max_min_rates, id="numpy"),
    pytest.param(python_rates, python_rates, id="python"),
]


@pytest.mark.parametrize("reference, solve", SOLVER_PAIRS)
@settings(max_examples=100, deadline=None)
@given(instance=instances, seed=st.randoms(use_true_random=False))
def test_prebuilt_incidence_with_any_column_numbering_is_bitwise_equal(
    reference, solve, instance, seed
):
    """The fluid model hands the solver its own incidence: rows in sorted
    flow order, columns in whatever order it interned the links, some of
    them crossed by no flow.  Rates must not notice."""
    caps, paths, demand = instance
    want = reference(paths, caps, demand)
    routed = sorted(fid for fid, links in paths.items() if links)
    columns = sorted(caps) + ["idle"]  # a column nothing crosses
    seed.shuffle(columns)
    index = {link: i for i, link in enumerate(columns)}
    rows = [[index[link] for link in paths[fid]] for fid in routed]
    inc = FlowIncidence(
        flow_ids=tuple(routed),
        link_ids=tuple(columns),
        indptr=(0, *itertools.accumulate(len(row) for row in rows)),
        indices=tuple(itertools.chain.from_iterable(rows)),
    )
    capacity = [caps.get(link, 1.0) for link in columns]
    got = solve(inc, capacity, [demand.get(fid, math.inf) for fid in routed])
    assert list(got) == routed
    assert {fid: rate.hex() for fid, rate in got.items()} == {
        fid: want[fid].hex() for fid in routed
    }
    assert capacity == [caps.get(link, 1.0) for link in columns]  # not consumed


def test_prebuilt_incidence_must_match_its_vectors():
    inc = build_incidence({"a": ["L0"], "b": ["L0", "L1"]})
    assert max_min_rates(inc, [1.0, 1.0]) == {"a": 0.5, "b": 0.5}
    with pytest.raises(FairShareError, match="2 flows x 2 links"):
        max_min_rates(inc, [1.0])
    with pytest.raises(FairShareError, match="2 flows x 2 links"):
        max_min_rates(inc, [1.0, 1.0], [0.25])


# ------------------------------------------------- known instances


def test_single_bottleneck_splits_evenly():
    rates = max_min_rates(
        {"a": ["L0"], "b": ["L0"], "c": ["L0"]}, {"L0": 9.0}
    )
    assert rates == {"a": 3.0, "b": 3.0, "c": 3.0}


def test_demand_capped_flow_frees_capacity_for_elastic_peers():
    # classic: demand 1 on a 10-capacity link shared with an elastic
    # flow — the capped flow takes 1, the elastic flow the remaining 9
    rates = max_min_rates(
        {"capped": ["L0"], "elastic": ["L0"]},
        {"L0": 10.0},
        {"capped": 1.0},
    )
    assert rates["capped"] == 1.0
    assert rates["elastic"] == pytest.approx(9.0)


def test_two_hop_flow_takes_the_tighter_bottleneck():
    # a crosses L0 (cap 4, shared with b) and L1 (cap 1, alone):
    # a freezes at 1 on L1, b then gets L0's remaining 3
    rates = max_min_rates(
        {"a": ["L0", "L1"], "b": ["L0"]},
        {"L0": 4.0, "L1": 1.0},
    )
    assert rates["a"] == pytest.approx(1.0)
    assert rates["b"] == pytest.approx(3.0)
