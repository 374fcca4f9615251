"""Observability: event tracing, metrics, and recovery-phase attribution.

The measurement substrate the ROADMAP's performance work stands on.  Three
pieces:

* :mod:`repro.obs.trace` — a ring-buffer :class:`TraceRecorder` of typed,
  timestamped events, with a disabled-by-default no-op fast path;
* :mod:`repro.obs.registry` — a prometheus-style :class:`MetricsRegistry`
  of named counters, gauges and fixed-bucket histograms;
* :mod:`repro.obs.breakdown` — :func:`analyze_recovery`, which turns a
  trace into the paper's per-phase recovery decomposition
  (detect -> flood -> SPF hold -> SPF compute -> FIB update -> first packet);
* :mod:`repro.obs.spans` — :func:`build_recovery_spans`, which lifts that
  decomposition into a causal parent/child :class:`SpanTree` (per-node
  ``spf`` and per-prefix ``fib_delta`` children, counters on the root);
* :mod:`repro.obs.export` — span exporters: JSONL and Chrome trace-event
  JSON (openable in Perfetto / ``chrome://tracing``).

The :class:`Observability` facade bundles one recorder and one registry and
is what a :class:`~repro.sim.engine.Simulator` carries (``sim.obs``).
Every simulator gets a **disabled** facade by default: hot paths check one
cached attribute (``obs.enabled``) and skip all instrumentation, so the
untraced simulator costs what it did before this layer existed.  Cold
paths (failures, LSA origination, SPF runs) emit unconditionally — the
recorder no-ops while disabled, and registry counters are cheap enough to
always keep.  LSA *flooding* is not one of them: it is most of a trial's
events, so it guards its ``lsa.accept`` emit like a hot path and keeps its
two always-on counters resolved per protocol instance instead of looking
them up by name per flood.

Enable at construction time::

    from repro.experiments.recovery import run_recovery
    from repro.obs import Observability
    from repro.obs.breakdown import render_breakdown
    from repro.topology.fattree import fat_tree

    obs = Observability(enabled=True)
    result = run_recovery(fat_tree(4), "udp", obs=obs)
    print(render_breakdown(result.breakdown))
    obs.trace.write_jsonl("trace.jsonl")
"""

from __future__ import annotations

from typing import Optional

from .registry import MetricsRegistry
from .trace import DEFAULT_CAPACITY, TraceRecorder


class Observability:
    """One trace recorder + one metrics registry, with a master switch.

    ``enabled`` gates the *hot-path* instrumentation (per-packet, per-event
    work); it is kept in sync with ``trace.enabled``.  The registry is
    always live — the control-plane counters (SPF runs, LSA floods, link
    failures) accumulate whether or not tracing is on.
    """

    __slots__ = ("trace", "metrics", "enabled")

    def __init__(
        self,
        enabled: bool = False,
        trace: Optional[TraceRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.trace = (
            trace
            if trace is not None
            else TraceRecorder(capacity=capacity, enabled=enabled)
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.enabled = enabled
        self.trace.enabled = enabled

    def enable(self) -> None:
        self.enabled = True
        self.trace.enabled = True

    def disable(self) -> None:
        self.enabled = False
        self.trace.enabled = False
