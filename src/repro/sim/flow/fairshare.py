"""Max-min fair bandwidth allocation (progressive filling).

The fluid backend replaces per-packet queueing with the classic fluid
approximation: every link's capacity is divided max-min fairly among the
flows crossing it.  The solver is the textbook water-filling algorithm —
raise every unfrozen flow's rate uniformly until some link saturates (or
some flow hits its demand cap), freeze the flows that saturated, repeat
with the residual capacities.

:func:`max_min_rates` runs it over a **flows×links incidence in CSR
form** (:func:`build_incidence`, the
:class:`~repro.topology.compact.CompactGraph` idiom applied to flows),
every water-filling round as vectorized min / scatter-add operations
(``np.bincount`` for crossing counts, ``np.add.reduceat`` for the
per-flow bottleneck test, ``np.subtract.at`` for the ordered residual
update), which is what lets the fluid backend carry tens of thousands of
flows per recompute.  numpy is a declared dependency; there is no
fallback.

:func:`_solve_python` is the same algorithm as a plain loop over lists,
kept as a **reference only**: the tests and ``repro bench`` compare the
vectorized solver against it, and no simulation path can reach it.  The
two are **bitwise equal by construction**: both freeze flows in
sorted-row order, subtract residuals in the same element order
(``np.subtract.at`` applies its updates sequentially in array order, the
python loop walks the identical concatenated segment), and share one
tolerance-based bottleneck test (``share <= level * (1 + SHARE_EPS)``)
so float drift in the residuals can never make them freeze different
flow sets on degenerate equal-share topologies.

The implementation is deliberately **order-independent**: flows and
links are processed in sorted-id order at every step, and every frozen
rate is a pure function of (paths, capacities, demands) — never of
insertion order.  The hypothesis suite in ``tests/test_fairshare.py``
pins the defining properties (conservation, monotonicity, order
independence, bitwise equality with the reference), and the
differential cross-backend harness relies on them: a corrupted solver is
caught by the ``backend-agreement`` invariant
(:mod:`repro.check.differential`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    overload,
)

import numpy as np

#: flows and links are identified by any sortable hashable (the fluid
#: model uses strings / int pairs)
FlowId = Hashable
LinkId = Hashable

#: Relative tolerance of the shared bottleneck / demand-cap tests.
#: Residual capacities accumulate float error across freezing rounds, so
#: "is this link saturated at the water level?" must not be an exact
#: comparison — a link whose per-flow share sits within one part in 1e12
#: of the level is treated as bottlenecked by *both* engines, which is
#: what keeps them freezing identical flow sets on degenerate
#: equal-share topologies.
SHARE_EPS = 1e-12


class FairShareError(ValueError):
    """A flow crosses a link with no declared capacity (or a prebuilt
    incidence does not match its capacity / demand vectors)."""


def have_numpy() -> bool:
    """Always True: numpy is a declared dependency.  Kept only while
    ``perfbench/child.py`` calls it; ``tests/test_perfbench_targets.py``
    says "delete" the day it stops."""
    return True


# ------------------------------------------------------------- incidence


@dataclass(frozen=True)
class FlowIncidence:
    """Flows×links incidence in CSR form (sorted, canonical).

    Row ``r`` is the ``r``-th flow in sorted-id order; its crossings are
    ``indices[indptr[r]:indptr[r+1]]`` — link column indices in path
    order (a link appearing twice in a path counts twice, exactly as the
    dict-based solver counted it).  Flows crossing no links are excluded:
    their rate is demand-only and never touches the water-filling.

    :func:`build_incidence` derives one from path dicts (columns are
    then the sorted crossed links); a caller that keeps its rows between
    solves — the fluid model interns each flow's row at path resolution —
    assembles one directly and hands it to :func:`max_min_rates`.  Any
    column numbering gives the same rates (only row order and in-row
    order reach the float trajectory), and uncrossed columns are inert.
    Both engines *and* the :func:`link_loads` test helper read this one
    structure, so every consumer agrees on link identity by construction.
    """

    flow_ids: Tuple[FlowId, ...]
    link_ids: Tuple[LinkId, ...]
    indptr: Tuple[int, ...]
    indices: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.flow_ids)

    def row_links(self, row: int) -> Tuple[int, ...]:
        """Link column indices crossed by flow ``row`` (path order)."""
        return self.indices[self.indptr[row]:self.indptr[row + 1]]

    @cached_property
    def arrays(self) -> Tuple[Any, Any]:
        """``(indptr, indices)`` as int64 numpy arrays, converted once
        per incidence (the conversion would otherwise dominate small
        solves)."""
        return (
            np.asarray(self.indptr, dtype=np.int64),
            np.asarray(self.indices, dtype=np.int64),
        )


def build_incidence(
    paths: Mapping[FlowId, Sequence[LinkId]],
    capacity: Optional[Mapping[LinkId, float]] = None,
) -> FlowIncidence:
    """The canonical CSR incidence of ``paths`` (see :class:`FlowIncidence`).

    With ``capacity`` given, every crossed link is validated against it
    (:class:`FairShareError` names the first offending flow) — the
    solver's contract; :func:`link_loads` builds without validation.
    """
    rows: List[Tuple[FlowId, Tuple[LinkId, ...]]] = []
    seen = set()
    for fid in sorted(paths):  # type: ignore[type-var]
        links = tuple(paths[fid])
        if capacity is not None:
            for link in links:
                if link not in capacity:
                    raise FairShareError(
                        f"flow {fid!r} crosses unknown link {link!r}"
                    )
        if links:
            rows.append((fid, links))
            seen.update(links)
    link_ids: Tuple[LinkId, ...] = tuple(sorted(seen))  # type: ignore[type-var]
    column = {link: i for i, link in enumerate(link_ids)}
    indptr: List[int] = [0]
    indices: List[int] = []
    for _fid, links in rows:
        indices.extend(column[link] for link in links)
        indptr.append(len(indices))
    return FlowIncidence(
        flow_ids=tuple(fid for fid, _links in rows),
        link_ids=link_ids,
        indptr=tuple(indptr),
        indices=tuple(indices),
    )


# --------------------------------------------------------------- engines


def _solve_python(
    inc: FlowIncidence, caps: Sequence[float], dems: Sequence[float]
) -> List[float]:
    """The reference water-filling loop over the CSR incidence.

    Freezes flows in ascending row order and subtracts residuals in the
    same concatenated-segment order the numpy engine's ``subtract.at``
    uses, so the two engines' float trajectories are identical.
    """
    n_flows = len(inc.flow_ids)
    n_links = len(inc.link_ids)
    indptr, indices = inc.indptr, inc.indices
    remaining = [float(c) for c in caps]
    counts = [0] * n_links
    for column in indices:
        counts[column] += 1
    rates = [0.0] * n_flows
    active = [True] * n_flows
    n_active = n_flows

    def freeze(row: int, rate: float) -> None:
        rates[row] = rate
        active[row] = False
        for column in indices[indptr[row]:indptr[row + 1]]:
            remaining[column] -= rate
            counts[column] -= 1

    while n_active:
        level = math.inf
        for column in range(n_links):
            if counts[column]:
                share = remaining[column] / counts[column]
                if share < level:
                    level = share
        if level < 0.0:
            level = 0.0  # residual float drift must never go negative
        threshold = level * (1.0 + SHARE_EPS)
        # demand-capped flows at or below the water level freeze at
        # their demand first — they never contend for the bottleneck
        capped = [
            row for row in range(n_flows)
            if active[row] and dems[row] <= threshold
        ]
        if capped:
            for row in capped:
                freeze(row, dems[row])
            n_active -= len(capped)
            continue
        bottleneck = [
            counts[column] > 0
            and remaining[column] / counts[column] <= threshold
            for column in range(n_links)
        ]
        frozen = [
            row for row in range(n_flows)
            if active[row]
            and any(
                bottleneck[column]
                for column in indices[indptr[row]:indptr[row + 1]]
            )
        ]
        assert frozen, "progressive filling must freeze at least one flow"
        for row in frozen:
            freeze(row, level)
        n_active -= len(frozen)
    return rates


def _concat_rows(indices: Any, starts: Any, lengths: Any) -> Any:
    """``concatenate(indices[s:s+l] for s, l in zip(starts, lengths))``
    without a python loop (every length is >= 1 by construction)."""
    total = int(lengths.sum())
    step = np.ones(total, dtype=np.int64)
    step[0] = starts[0]
    ends = np.cumsum(lengths)
    step[ends[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1]) + 1
    return indices[np.cumsum(step)]


def _solve_numpy(
    inc: FlowIncidence, caps: Sequence[float], dems: Sequence[float]
) -> List[float]:
    """Vectorized water-filling: identical float trajectory to
    :func:`_solve_python` (see the module docstring), rounds as array ops.

    Per-round work tracks the *surviving* flows, not the original
    instance: the CSR view is compacted to the active rows whenever at
    least half of them have frozen, so the total gather/reduceat cost is
    O(nnz · rounds-at-current-size) with a geometrically shrinking size —
    the property that keeps round-heavy instances (many distinct
    bottleneck levels) from degenerating to rounds × full-nnz.
    """
    n_flows = len(inc.flow_ids)
    n_links = len(inc.link_ids)
    indptr, indices = inc.arrays
    remaining = np.array(caps, dtype=np.float64)  # a copy: mutated below
    counts = np.bincount(indices, minlength=n_links)
    rates = np.zeros(n_flows, dtype=np.float64)

    # compacted active view: original row ids (ascending), their demand,
    # and their CSR segments concatenated in that order
    rows_view = np.arange(n_flows, dtype=np.int64)
    dem_view = np.asarray(dems, dtype=np.float64)
    idx_view = indices
    starts_view = indptr[:-1]
    lengths_view = np.diff(indptr)
    alive = np.ones(n_flows, dtype=bool)  # positions within the view
    n_active = n_flows

    def freeze(positions: Any, values: Any) -> None:
        # subtract.at applies updates sequentially in array order —
        # ascending original row, path order — matching the python loop
        segment = _concat_rows(
            idx_view, starts_view[positions], lengths_view[positions]
        )
        np.subtract.at(
            remaining, segment, np.repeat(values, lengths_view[positions])
        )
        np.subtract.at(counts, segment, 1)
        rates[rows_view[positions]] = values
        alive[positions] = False

    while n_active:
        if n_active <= alive.size // 2:
            keep = np.flatnonzero(alive)
            rows_view = rows_view[keep]
            dem_view = dem_view[keep]
            kept_lengths = lengths_view[keep]
            idx_view = _concat_rows(idx_view, starts_view[keep], kept_lengths)
            lengths_view = kept_lengths
            starts_view = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(kept_lengths)[:-1])
            )
            alive = np.ones(n_active, dtype=bool)
        crossed = counts > 0
        share = np.divide(
            remaining,
            counts,
            out=np.full(n_links, np.inf, dtype=np.float64),
            where=crossed,
        )
        level = float(share.min())
        if level < 0.0:
            level = 0.0  # residual float drift must never go negative
        threshold = level * (1.0 + SHARE_EPS)
        capped = alive & (dem_view <= threshold)
        if capped.any():
            positions = np.flatnonzero(capped)
            freeze(positions, dem_view[positions])
            n_active -= int(positions.size)
            continue
        bottleneck = crossed & (share <= threshold)
        hit = np.add.reduceat(bottleneck[idx_view], starts_view) > 0
        positions = np.flatnonzero(alive & hit)
        assert positions.size, "progressive filling must freeze at least one flow"
        freeze(positions, np.full(positions.size, level, dtype=np.float64))
        n_active -= int(positions.size)
    out: List[float] = rates.tolist()
    return out


# ---------------------------------------------------------------- public


@overload
def max_min_rates(
    paths: Mapping[FlowId, Sequence[LinkId]],
    capacity: Mapping[LinkId, float],
    demand: Optional[Mapping[FlowId, float]] = None,
) -> Dict[FlowId, float]: ...


@overload
def max_min_rates(
    paths: FlowIncidence,
    capacity: Sequence[float],
    demand: Optional[Sequence[float]] = None,
) -> Dict[FlowId, float]: ...


def max_min_rates(
    paths: Any, capacity: Any, demand: Any = None
) -> Dict[FlowId, float]:
    """Max-min fair rates for ``paths`` over per-link ``capacity``.

    ``paths`` maps each flow to the links it crosses (a flow crossing no
    links — source and destination on the same host — is only limited by
    its demand, ``inf`` when elastic).  ``demand`` optionally caps
    individual flows (bytes/ns of offered load); elastic flows take as
    much as fairness allows.

    Alternatively ``paths`` is a prebuilt :class:`FlowIncidence`;
    ``capacity`` is then a sequence aligned with its columns and
    ``demand`` one aligned with its rows (``inf`` for elastic flows),
    and no incidence is built here.

    Returns a rate per flow in the same unit as ``capacity``.  The result
    is a pure function of the three mappings: iteration order of the
    inputs never matters.
    """
    return _allocate(_solve_numpy, paths, capacity, demand)


def _allocate(
    solve: Callable[[FlowIncidence, Sequence[float], Sequence[float]], List[float]],
    paths: Any,
    capacity: Any,
    demand: Any = None,
) -> Dict[FlowId, float]:
    """:func:`max_min_rates` through the water-filler ``solve``: the
    simulator's is always :func:`_solve_numpy`; the tests and ``repro
    bench`` pass :func:`_solve_python` to get the bitwise reference."""
    rates: Dict[FlowId, float] = {}
    if isinstance(paths, FlowIncidence):
        inc = paths
        caps = capacity
        dems = demand if demand is not None else [math.inf] * len(inc)
        if len(caps) != len(inc.link_ids) or len(dems) != len(inc):
            raise FairShareError(
                f"incidence is {len(inc)} flows x {len(inc.link_ids)} links, "
                f"got {len(dems)} demands and {len(caps)} capacities"
            )
    else:
        demands: Mapping[FlowId, float] = demand or {}
        inc = build_incidence(paths, capacity)
        routed = set(inc.flow_ids)
        for fid in sorted(paths):
            if fid not in routed:
                cap = demands.get(fid)
                rates[fid] = float(cap) if cap is not None else math.inf
        caps = [float(capacity[link]) for link in inc.link_ids]
        dems = [
            float(demands[fid]) if fid in demands else math.inf
            for fid in inc.flow_ids
        ]
    rates.update(zip(inc.flow_ids, solve(inc, caps, dems)))
    return rates


def link_loads(
    paths: Mapping[FlowId, Sequence[LinkId]],
    rates: Mapping[FlowId, float],
) -> Dict[LinkId, float]:
    """Aggregate rate per link implied by an allocation (test helper).

    Built on the same :func:`build_incidence` as the solvers, so load
    accounting can never disagree with them on link identity.
    """
    inc = build_incidence(paths)
    loads: Dict[LinkId, float] = {link: 0.0 for link in inc.link_ids}
    for row, fid in enumerate(inc.flow_ids):
        rate = float(rates[fid])
        for column in inc.row_links(row):
            loads[inc.link_ids[column]] += rate
    return loads
