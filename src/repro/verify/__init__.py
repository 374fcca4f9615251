"""Static verification of F²Tree backup properties (no simulation).

``repro.verify`` proves — or refutes, with concrete counterexamples —
the structural claims the paper makes about the rewired fabric:

* **coverage**: every downward link on every ring switch has a live
  across-link fall-through for every destination prefix it serves;
* **loop-freedom**: for every destination ``/24`` and every failure set
  up to size *k*, the next-hop-after-LPM-fall-through graph is acyclic
  (the paper's accepted two-failure ring loop surfaces as an explicit
  *caveat* finding, not an error);
* **prefix-scheme soundness**: the ``/16``/``/15`` backups are strictly
  shorter than every learned prefix and never shadow one;
* **wiring conformance**: the two rewired links per switch form the pod
  ring the paper specifies, within each switch's port budget (a
  miswiring census with named defects).

Everything operates on a :class:`~repro.verify.model.StaticNetworkModel`
built purely from the topology description and the backup-route
configuration — no simulator, no event loop.  The model's FIBs are the
fixed point the distributed protocol converges to (the same global-SPF
oracle the ``convergence-agreement`` invariant compares against), so a
statically refuted property is a real deployment defect, and every
witness replays under ``CheckedSimulator`` (:mod:`repro.verify.replay`).
"""
