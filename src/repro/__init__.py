"""repro — a full reproduction of *"Rewiring 2 Links is Enough: Accelerating
Failure Recovery in Production Data Center Networks"* (F²Tree, ICDCS 2015).

The package layers bottom-up:

* :mod:`repro.sim` — deterministic discrete-event engine (ns resolution);
* :mod:`repro.net` — IPv4, longest-prefix-match FIB, packets, ECMP hashing;
* :mod:`repro.topology` — fat tree / Leaf-Spine / VL2 / Aspen builders and
  the production addressing convention;
* :mod:`repro.dataplane` — store-and-forward links with failure detection,
  L3 switches with FIB fall-through forwarding, hosts;
* :mod:`repro.routing` — an OSPF-like link-state protocol with Quagga-style
  SPF throttling, plus static routes;
* :mod:`repro.transport` — UDP probes and a compact TCP (RFC 6298 RTO);
* :mod:`repro.core` — **the paper's contribution**: F²Tree rewiring,
  backup-route configuration, failure-condition analysis, Table I;
* :mod:`repro.failures`, :mod:`repro.workloads`, :mod:`repro.metrics` —
  failure injection, partition-aggregate/background workloads, measurement;
* :mod:`repro.experiments` — one harness per table/figure.

Quick start::

    from repro.experiments.testbed import render_table_three, run_table_three
    print(render_table_three(run_table_three()))
"""

__version__ = "1.0.0"

try:  # the batch SPF kernel and the fair-share solver are numpy code
    import numpy  # noqa: F401
except ImportError:
    raise ImportError(
        "repro requires numpy; install it with: pip install numpy"
    ) from None
