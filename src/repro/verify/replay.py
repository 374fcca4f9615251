"""Replay a static counterexample under the checked simulator.

A refutation from :mod:`repro.verify` is a claim about a system nobody
ran.  :func:`replay_witness` closes that loop: build the same (possibly
mutated) network under ``CheckedSimulator``, converge it, apply the
dynamic twin of the FIB defect if there is one, fail exactly the
witness's links, and — once the failure-detection window has passed but
before SPF reconvergence can repair anything — observe the predicted
loop or black hole in the *live* forwarding graph.

The forwarding graph is built by the checkers' shared walk
(:mod:`repro.net.forwarding`) over each switch's real, possibly
instance-patched ``Fib.matches`` and ``neighbor_alive`` — not over the
static model — so a reproduced witness means the deployed data plane
misbehaves, not just the verifier's abstraction of it.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, List, Optional, TYPE_CHECKING

from ..net.forwarding import LOOP, forwarding_graph, live_match, scan
from ..net.ip import Prefix
from ..dataplane.params import NetworkParams
from ..sim.units import milliseconds
from ..topology.graph import Topology, reachable
from .checks import Witness

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dataplane.network import Network

#: live loops examined for one that touches the predicted cycle
_MAX_LOOPS = 5
#: control-plane warmup before the witness failures fire
_WARMUP = milliseconds(500)
#: failures fire this long after warmup (same offset execute_check uses)
_FAILURE_OFFSET = milliseconds(100)


def _observe(network: "Network", witness: Witness) -> bool:
    """Whether ``witness`` shows on the live forwarding state."""
    address = Prefix(witness.subnet).address(2)
    edges, delivers = forwarding_graph(
        (switch.name, live_match(
            switch.fib.matches(address), switch.neighbor_alive
        ))
        for switch in network.switches()
    )
    if witness.kind == LOOP:
        loops = (
            defect for defect in scan(edges.get, sorted(edges), delivers)
            if defect.kind == LOOP
        )
        return any(
            set(witness.nodes).intersection(loop.nodes)
            for loop in islice(loops, _MAX_LOOPS)
        )
    # blackhole: the witness switch must be unable to reach delivery
    return witness.at not in edges or delivers.isdisjoint(reachable(
        witness.at, lambda node: [nh for nh, _ in edges.get(node, ())]
    ))


def replay_witness(
    topo: Topology,
    witness: Witness,
    tie_break: str = "prefix-length",
    apply_dynamic: Optional[Callable[[object], None]] = None,
) -> bool:
    """Whether one static counterexample reproduces under
    ``CheckedSimulator`` with the engine's timing audit clean.

    ``topo`` must be the same (mutated) topology the verifier refuted;
    ``apply_dynamic`` is the bundle patch matching any model-level FIB
    mutation.  The observation happens after the detection window and
    before the earliest possible SPF repair, i.e. inside the fast-
    reroute window the witness speaks about (for an empty failure set —
    a baseline defect — it happens right after convergence).
    """
    from ..check.config import fast_overrides
    from ..check.execute import PRIORITY_CHECK, CheckedSimulator
    from ..experiments.common import build_bundle

    params = NetworkParams().with_overrides(**dict(fast_overrides()))
    sim = CheckedSimulator()
    bundle = build_bundle(
        topo, params=params, seed=1, backup_tie_break=tie_break, sim=sim,
        backup_on_error="skip",
    )
    bundle.converge(until=_WARMUP)
    if apply_dynamic is not None:
        apply_dynamic(bundle)

    pairs = sorted(set(witness.failed))
    if pairs:
        fail_at = _WARMUP + _FAILURE_OFFSET
        for a, b in pairs:
            bundle.network.schedule_link_failure(a, b, fail_at)
        # after detection (backups engaged), before the SPF initial delay
        observe_at = fail_at + params.detection_delay + milliseconds(2)
    else:
        observe_at = _WARMUP + milliseconds(2)

    observations: List[bool] = []
    sim.schedule_at(
        observe_at, lambda: observations.append(_observe(bundle.network, witness)),
        priority=PRIORITY_CHECK,
    )
    sim.run(until=observe_at + milliseconds(1))
    return observations[0] and not sim.timing_violations
