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

from .bundle import load_bundle, replay_bundle, write_bundle
from .config import TrialConfig, build_topology, generate_config, quiescence_bound
from .execute import CheckedSimulator, CheckError, CheckOutcome, concretize, execute_check
from .invariants import (
    ALL_INVARIANTS,
    BLACKHOLE_BOUND,
    CONVERGENCE_AGREEMENT,
    FIB_CONSISTENCY,
    FRR_WINDOW,
    LOOP_FREEDOM,
    SIM_SANITY,
    InvariantSuite,
    Violation,
    canonical_violations,
)
from .mutants import MUTANTS, FaultMutant, MutantResult, check_mutant, render_selftest, run_selftest
from .shrink import shrink_config

__all__ = [
    "ALL_INVARIANTS",
    "BLACKHOLE_BOUND",
    "CONVERGENCE_AGREEMENT",
    "CheckError",
    "CheckOutcome",
    "CheckedSimulator",
    "FIB_CONSISTENCY",
    "FRR_WINDOW",
    "FaultMutant",
    "InvariantSuite",
    "LOOP_FREEDOM",
    "MUTANTS",
    "MutantResult",
    "SIM_SANITY",
    "TrialConfig",
    "Violation",
    "build_topology",
    "canonical_violations",
    "check_mutant",
    "concretize",
    "execute_check",
    "generate_config",
    "load_bundle",
    "quiescence_bound",
    "render_selftest",
    "replay_bundle",
    "run_selftest",
    "shrink_config",
    "write_bundle",
]
