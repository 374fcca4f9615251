"""Network-wide timing and capacity parameters.

Defaults reproduce the paper's measured / configured constants:

* 1 Gbps links with 5 us propagation delay (§IV: ~250 us RTT, ~100 us
  one-way end-to-end delay over 6 hops);
* 60 ms failure detection (BFD-scale; measured on the testbed, §III);
* 10 ms FIB update delay (measured on the testbed, §III);
* Quagga's default SPF throttling ``timers throttle spf 200 1000 10000`` —
  200 ms initial delay, 1 s hold doubling up to 10 s under churn, which is
  how the paper's fat tree exhibits ~272 ms single-failure recovery and ~9 s
  timers under failure storms (§IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from ..sim.units import Time, microseconds, milliseconds


@dataclass(frozen=True)
class NetworkParams:
    """Timing/capacity knobs shared by every link and switch."""

    #: Link rate in Gbps (1 bit/ns).
    link_rate_gbps: float = 1.0
    #: Per-link propagation delay.
    propagation_delay: Time = microseconds(5)
    #: Output queue capacity per link direction, in packets.
    queue_capacity: int = 256
    #: Per-switch packet processing delay (0: the paper's 100 us one-way
    #: delay is fully explained by transmission + propagation).
    switch_processing_delay: Time = 0

    #: Time from a link actually failing to an endpoint *detecting* it.
    detection_delay: Time = milliseconds(60)
    #: Time from a link recovering to an endpoint detecting the recovery
    #: (adjacency re-establishment; same scale as down detection).
    up_detection_delay: Time = milliseconds(60)
    #: What endpoints can detect: "bfd" — either direction failing brings
    #: the session down at *both* ends; "interface" — an endpoint only
    #: notices when its incoming direction dies (loss of signal).  The
    #: distinction only matters for unidirectional failures (the paper's
    #: future work; see the unidirectional extension benchmark).
    detection_mode: str = "bfd"

    #: Delay between an SPF run finishing and its routes being active
    #: (FIB download; measured ~10 ms on the testbed).
    fib_update_delay: Time = milliseconds(10)

    #: SPF throttle: delay from first LSDB change to the first SPF run.
    spf_initial_delay: Time = milliseconds(200)
    #: SPF throttle: initial hold time between consecutive SPF runs.
    spf_hold: Time = milliseconds(1000)
    #: SPF throttle: maximum hold time (exponential backoff cap).
    spf_hold_max: Time = milliseconds(10000)

    #: Per-hop processing delay for flooded LSAs (CPU cost of flooding;
    #: the testbed attributes ~2-3 ms of the 272 ms loss to LSA propagation
    #: and CPU processing across a few hops).
    lsa_processing_delay: Time = microseconds(500)
    #: Wire size of one LSA packet.
    lsa_size_bytes: int = 120

    #: Data-plane backend: "packet" simulates every packet as events;
    #: "flow" computes per-flow throughput/FCT/loss analytically (max-min
    #: fair share per link) while failures, detection, flooding, and
    #: SPF/FIB convergence stay event-driven (see repro.sim.flow).
    backend: str = "packet"

    def with_overrides(self, **changes: Any) -> "NetworkParams":
        """A copy with the given fields replaced (ablation harness hook)."""
        return replace(self, **changes)


#: Parameters matching the paper's testbed/emulation environment.
PAPER_DEFAULTS = NetworkParams()
