"""repro.check — invariant checking and differential fuzzing.

The subsystem has five moving parts:

``config``
    :class:`TrialConfig` — a fully pinned, JSON-serializable trial
    (topology family x size x NetworkParams overrides x failure/recovery
    event sequence) — and :func:`generate_config`, the seeded fuzzer
    that draws one.
``invariants``
    The invariant catalog (:data:`ALL_INVARIANTS`) and the
    :class:`InvariantSuite` that evaluates it against a live bundle.
``execute``
    :func:`execute_check` runs one config under the instrumented
    :class:`CheckedSimulator`, scheduling invariant checks around every
    topology event, and returns a :class:`CheckOutcome`.
``mutants``
    Seeded fault mutants — deliberate breakages of the system under
    test — each provably caught by exactly one invariant
    (:func:`check_mutant`, :func:`run_selftest`).
``shrink`` / ``bundle``
    Delta-debugging minimization of a violating event sequence and
    replay bundles that reproduce a violation byte-identically.
"""
