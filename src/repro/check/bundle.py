"""Replay bundles: a violation, frozen.

A bundle is one JSON file carrying everything needed to reproduce a
violation byte-identically: the campaign-style spec (kind + seed), the
fully pinned :class:`~repro.check.config.TrialConfig`, the mutant name
(if the violation came from the self-test layer), the canonical
violation list, and the obs trace of the violating run.

``write_bundle`` re-executes the trial with tracing enabled and *fails*
if the re-execution does not reproduce the violations exactly — so a
bundle on disk is already proof of determinism.  It also seals the
bundle with a ``sha256`` over the canonical JSON of every other field,
so an edited bundle (violations emptied, a trace event cut) is refused
rather than replayed as a pass.  ``replay_bundle`` is the consumer
side: load, re-execute, compare canonically.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional, TYPE_CHECKING, Tuple

from .config import TrialConfig
from .execute import CheckOutcome, execute_check
from .invariants import canonical_violations

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .mutants import FaultMutant

BUNDLE_VERSION = 1

#: flight-recorder depth: the last N trace events embedded alongside the
#: full trace so a refutation's immediate run-up is readable at a glance
FLIGHT_RING_EVENTS = 512


class BundleError(RuntimeError):
    """A bundle that cannot be written or does not reproduce."""


def flight_dict(outcome: CheckOutcome) -> Dict[str, Any]:
    """The flight-recorder section: last-N event ring + full span tree.

    ``ring`` is the tail of the traced run's event stream (bounded by
    :data:`FLIGHT_RING_EVENTS`, with ``ring_dropped`` counting what the
    bound cut); ``spans`` is the causal span tree of the failing trial,
    so a violation is debuggable offline without re-execution.
    """
    trace = outcome.trace or []
    return {
        "ring": trace[-FLIGHT_RING_EVENTS:],
        "ring_dropped": max(0, len(trace) - FLIGHT_RING_EVENTS),
        "spans": outcome.spans,
    }


def bundle_dict(
    config: TrialConfig,
    outcome: CheckOutcome,
    mutant_name: Optional[str] = None,
) -> Dict[str, Any]:
    return {
        "version": BUNDLE_VERSION,
        "spec": {"kind": "check", "seed": config.seed, "params": {}},
        "config": config.to_dict(),
        "mutant": mutant_name,
        "violations": [v.to_dict() for v in outcome.violations],
        "stats": outcome.stats,
        "trace": outcome.trace or [],
        "flight": flight_dict(outcome),
    }


def write_bundle(
    path: Path,
    config: TrialConfig,
    outcome: CheckOutcome,
    mutant: "Optional[FaultMutant]" = None,
) -> Path:
    """Write a replay bundle, verifying reproducibility on the way.

    The trial is re-executed with tracing enabled; if the re-execution's
    violations differ from ``outcome``'s, the bundle is *not* written
    and :class:`BundleError` is raised — a nondeterministic "violation"
    is a checker bug, not a finding.
    """
    traced = execute_check(config, mutant=mutant, traced=True)
    if canonical_violations(traced.violations) != canonical_violations(
        outcome.violations
    ):
        raise BundleError(
            f"violation did not reproduce under traced re-execution "
            f"(got {traced.invariants_violated}, "
            f"expected {outcome.invariants_violated})"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    mutant_name = getattr(mutant, "name", None)
    # digest the bundle as it will read back (JSON object keys are strings)
    data = json.loads(
        json.dumps(bundle_dict(config, traced, mutant_name), sort_keys=True)
    )
    data["sha256"] = bundle_digest(data)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def bundle_digest(data: Dict[str, Any]) -> str:
    """sha256 of the canonical JSON of every field but ``sha256``."""
    body = {key: value for key, value in data.items() if key != "sha256"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_bundle(path: Path) -> Dict[str, Any]:
    """A bundle's JSON, shape- and digest-checked: a malformed or edited
    file raises :class:`BundleError` rather than replaying.

    Bundles archived before the digest carry no ``sha256`` and still
    load; as the CLI only ever wrote violating trials, such a bundle
    with no violations has been edited and is refused.
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise BundleError(f"bundle is a JSON {type(data).__name__}, not an object")
    if data.get("version") != BUNDLE_VERSION:
        raise BundleError(
            f"unsupported bundle version {data.get('version')!r}"
        )
    if not isinstance(data.get("config"), dict):
        raise BundleError("bundle 'config' is not an object")
    if not isinstance(data.get("violations"), list):
        raise BundleError("bundle 'violations' is not a list")
    if "sha256" in data:
        if data["sha256"] != bundle_digest(data):
            raise BundleError("bundle digest does not match its contents")
    elif not data["violations"]:
        raise BundleError("bundle without a digest records no violations")
    return data


def replay_bundle(path: Path) -> Tuple[bool, str]:
    """Re-execute a bundle and compare violations byte-for-byte.

    Returns ``(reproduced, human-readable summary)``.
    """
    from .mutants import MUTANTS

    data = load_bundle(path)
    config = TrialConfig.from_dict(data["config"])
    mutant = MUTANTS[data["mutant"]] if data.get("mutant") else None
    outcome = execute_check(config, mutant=mutant)
    expected = json.dumps(
        data["violations"], sort_keys=True, separators=(",", ":")
    )
    actual = canonical_violations(outcome.violations)
    if actual == expected:
        return True, (
            f"reproduced: {len(outcome.violations)} violation(s) "
            f"[{', '.join(outcome.invariants_violated)}] byte-identical "
            f"to {Path(path).name}"
        )
    return False, (
        f"MISMATCH: replay produced {outcome.invariants_violated} "
        f"({len(outcome.violations)} violations), bundle records "
        f"{sorted({v['invariant'] for v in data['violations']})} "
        f"({len(data['violations'])})"
    )
