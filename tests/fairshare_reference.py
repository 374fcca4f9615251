"""The pure-python max-min water-filler: the fair-share solver's oracle.

:func:`repro.sim.flow.fairshare.max_min_rates` solves with numpy; this
module is the same algorithm as a plain loop over lists, and the tests
require the two to agree **bitwise** (``==``, never ``approx``).  They
do by construction: both freeze flows in ascending row order, subtract
residuals in the same concatenated-segment order (``np.subtract.at``
applies its updates sequentially in array order) and share one
bottleneck tolerance, ``SHARE_EPS``.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Sequence

from repro.sim.flow.fairshare import (
    SHARE_EPS,
    FlowId,
    FlowIncidence,
    LinkId,
    build_incidence,
)


def solve_python(
    inc: FlowIncidence, caps: Sequence[float], dems: Sequence[float]
) -> List[float]:
    """The reference water-filling loop over the CSR incidence."""
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


def python_rates(paths: Any, capacity: Any, demand: Any = None) -> Dict[FlowId, float]:
    """:func:`~repro.sim.flow.fairshare.max_min_rates` through
    :func:`solve_python`: path dicts or a prebuilt incidence, the same
    contract and the same rates, bit for bit."""
    if isinstance(paths, FlowIncidence):
        dems = demand if demand is not None else [math.inf] * len(paths)
        return dict(zip(paths.flow_ids, solve_python(paths, capacity, dems)))
    demands = demand or {}
    inc = build_incidence(paths, capacity)
    rates = {
        fid: float(demands.get(fid, math.inf)) for fid in paths if not paths[fid]
    }
    caps = [float(capacity[link]) for link in inc.link_ids]
    dems = [float(demands.get(fid, math.inf)) for fid in inc.flow_ids]
    rates.update(zip(inc.flow_ids, solve_python(inc, caps, dems)))
    return rates


def link_loads(
    paths: Mapping[FlowId, Sequence[LinkId]], rates: Mapping[FlowId, float]
) -> Dict[LinkId, float]:
    """Aggregate rate per link implied by an allocation, read through the
    solver's own :func:`~repro.sim.flow.fairshare.build_incidence` so load
    accounting can never disagree with it on link identity."""
    inc = build_incidence(paths)
    loads = {link: 0.0 for link in inc.link_ids}
    for row, fid in enumerate(inc.flow_ids):
        rate = float(rates[fid])
        for column in inc.row_links(row):
            loads[inc.link_ids[column]] += rate
    return loads
