"""The self-test diagonal: every seeded fault mutant is caught by exactly
the invariant it targets, and the unmutated baseline stays clean.

This is the acceptance criterion that gives the checker teeth — a fuzzer
that never fires would pass every trial while checking nothing.
"""

from __future__ import annotations

import pytest

from repro.check import ALL_INVARIANTS, MUTANTS, check_mutant
from repro.check.invariants import FRR_WINDOW


def test_every_invariant_has_a_mutant():
    """The mutant layer covers the full catalog: every invariant is the
    target of at least one mutant (convergence-agreement has two — the
    stale-flooding fault and the corrupted-SPF-engine fault)."""
    targeted = {mutant.invariant for mutant in MUTANTS.values()}
    assert targeted == set(ALL_INVARIANTS)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_caught_by_exactly_its_invariant(name):
    result = check_mutant(name)
    assert result.baseline == (), (
        f"baseline for {name} must be violation-free, got {result.baseline}"
    )
    assert result.caught == (result.expected,), (
        f"{name} must be caught by exactly {result.expected!r}, "
        f"got {result.caught}"
    )


def test_mutant_configs_are_deterministic():
    for mutant in MUTANTS.values():
        assert (
            mutant.config_factory().canonical_json()
            == mutant.config_factory().canonical_json()
        )


def test_frr_mutant_rides_a_scenario_profile():
    """frr-window only exists for scenario profiles, so its mutant must
    use one (the shrinker knows it cannot concretize that violation)."""
    assert MUTANTS["backup-routes-disabled"].invariant == FRR_WINDOW
    assert MUTANTS["backup-routes-disabled"].config_factory().profile == "scenario"
