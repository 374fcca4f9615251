"""Flow-level (fluid) simulation backend.

Selected with ``NetworkParams(backend="flow")``: data traffic becomes
piecewise-constant fluid flows whose rates are max-min fair shares of
the link capacities, while the control plane (failure detection, LSA
flooding, SPF throttling, FIB downloads) keeps running event-driven on
the unchanged engine.  See :mod:`repro.sim.flow.model` for the model,
:mod:`repro.sim.flow.fairshare` for the solver (vectorized over one CSR
incidence; numpy is required, its python twin is a test reference only),
and :mod:`repro.sim.flow.warmstart` for the batch warm start that makes
k=32/k=48 fabrics tractable.
"""

from .fairshare import (
    FairShareError,
    FlowIncidence,
    FlowId,
    LinkId,
    build_incidence,
    link_loads,
    max_min_rates,
)
from .model import (
    PRIORITY_FLOW,
    FlowSegment,
    FlowSpec,
    FluidFlow,
    FluidTrafficModel,
)

__all__ = [
    "FairShareError",
    "FlowIncidence",
    "FlowId",
    "LinkId",
    "build_incidence",
    "link_loads",
    "max_min_rates",
    "PRIORITY_FLOW",
    "FlowSegment",
    "FlowSpec",
    "FluidFlow",
    "FluidTrafficModel",
]
