"""Trial configurations for the invariant checker.

A :class:`TrialConfig` pins *everything* a check trial depends on —
topology family and size, ``NetworkParams`` overrides, and the failure/
recovery event sequence — as plain JSON-safe scalars, so a trial can be
replayed byte-identically from its serialized form alone.

:func:`generate_config` is the fuzzer: from a single integer seed it
draws one configuration deterministically (same seed, same config).
Event times are snapped to a coarse 100 ms grid so every event gets its
own quiet slot: LSAs are flooded once on adjacency change (no periodic
refresh), so two topology changes landing inside one flood window can
legitimately strand a router with a stale view — a property of the
modeled protocol, not a bug the fuzzer should report.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from ..core.fabrics import FABRICS, build_fabric
from ..dataplane.params import NetworkParams
from ..failures.scenarios import ALL_LABELS
from ..sim.randomness import RandomStreams
from ..sim.units import Time, milliseconds, seconds
from ..topology.graph import Topology

#: trial profiles: ``scenario`` replays a Table IV condition label,
#: ``events`` schedules an explicit failure/recovery sequence
PROFILES = ("scenario", "events")

#: spacing of the event-time grid (see module docstring)
EVENT_GRID: Time = milliseconds(100)
#: number of grid slots after warmup that events may occupy
EVENT_SLOTS = 12

#: (at, a, b, restore_at or None) with *absolute* simulation times in ns
EventTuple = Tuple[int, str, str, Optional[int]]


class ConfigError(ValueError):
    """An invalid or inconsistent trial configuration."""


@dataclass(frozen=True)
class TrialConfig:
    """One fully pinned check trial."""

    topology: str
    ports: int
    across_ports: int = 2
    profile: str = "events"
    #: Table IV label (C1..C7) when ``profile == 'scenario'``
    scenario: Optional[str] = None
    seed: int = 1
    #: sorted ``(field, value)`` NetworkParams overrides (values are the
    #: field's own type — ints for timers, ``str`` for ``backend``)
    overrides: Tuple[Tuple[str, Any], ...] = ()
    #: failure/recovery events when ``profile == 'events'``
    events: Tuple[EventTuple, ...] = ()
    warmup: Time = field(default=seconds(1))

    def __post_init__(self) -> None:
        if self.topology not in FABRICS:
            raise ConfigError(f"unknown topology family {self.topology!r}")
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r}")
        if self.profile == "scenario":
            if self.scenario is None:
                raise ConfigError("scenario profile needs a scenario label")
            if self.events:
                raise ConfigError("scenario profile must not carry events")
        elif self.scenario is not None:
            raise ConfigError("events profile must not carry a scenario label")
        for event in self.events:
            at, a, b, restore_at = event
            if at < self.warmup:
                raise ConfigError(f"event {event} fires before warmup")
            if restore_at is not None and restore_at <= at:
                raise ConfigError(f"event {event} restores before failing")

    def params(self) -> NetworkParams:
        """The NetworkParams this trial runs with."""
        return NetworkParams().with_overrides(**dict(self.overrides))

    # ------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        return {
            "topology": self.topology,
            "ports": self.ports,
            "across_ports": self.across_ports,
            "profile": self.profile,
            "scenario": self.scenario,
            "seed": self.seed,
            "overrides": [list(item) for item in self.overrides],
            "events": [list(event) for event in self.events],
            "warmup": self.warmup,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TrialConfig":
        return cls(
            topology=data["topology"],
            ports=data["ports"],
            across_ports=data["across_ports"],
            profile=data["profile"],
            scenario=data["scenario"],
            seed=data["seed"],
            overrides=tuple((name, value) for name, value in data["overrides"]),
            events=tuple(
                (at, a, b, restore_at) for at, a, b, restore_at in data["events"]
            ),
            warmup=data["warmup"],
        )

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def with_events(self, events: Tuple[EventTuple, ...]) -> "TrialConfig":
        return replace(self, profile="events", scenario=None, events=events)

    def with_backend(self, backend: str) -> "TrialConfig":
        """The same trial pinned to ``backend`` (packet/flow) — the
        differential harness runs a config through both."""
        kept = tuple(
            (name, value) for name, value in self.overrides if name != "backend"
        )
        return replace(
            self, overrides=tuple(sorted(kept + (("backend", backend),)))
        )


def build_topology(config: TrialConfig) -> Topology:
    """Instantiate the configured topology family at the configured size."""
    return build_fabric(config.topology, config.ports, config.across_ports)


def quiescence_bound(params: NetworkParams) -> Time:
    """Upper bound on control-plane settling time after one topology event.

    detection (or up-detection) + a flooding/LSA-processing margin + the
    initial SPF timer + one full hold window + the FIB install delay + a
    final margin.  A black hole outliving this bound while a physical
    path survives is an invariant violation.
    """
    return (
        max(params.detection_delay, params.up_detection_delay)
        + milliseconds(5)
        + params.spf_initial_delay
        + params.spf_hold_max
        + params.fib_update_delay
        + milliseconds(5)
    )


# ------------------------------------------------------------------ fuzzer

#: (family, ports) pool the fuzzer draws from; kept small enough that a
#: single trial stays sub-second
_TOPOLOGIES: Tuple[Tuple[str, int], ...] = (
    ("fat-tree", 4),
    ("fat-tree", 6),
    ("f2tree", 6),
    ("f2tree", 8),
    ("leaf-spine", 4),
    ("vl2", 4),
)

#: timer overrides drawn per trial — much faster than the paper defaults
#: so a fuzz trial converges in simulated milliseconds, not seconds
_DETECTION_CHOICES = (milliseconds(1), milliseconds(5), milliseconds(10))
_SPF_INITIAL_CHOICES = (milliseconds(20), milliseconds(50))
_SPF_HOLD_CHOICES = (milliseconds(100), milliseconds(200))
_FIB_CHOICES = (milliseconds(2), milliseconds(10))

#: default warmup for generated trials: initial convergence plus every
#: hold window comfortably expired before the first event
_WARMUP: Time = seconds(1)


def fast_overrides(
    rng: Optional[random.Random] = None,
) -> Tuple[Tuple[str, int], ...]:
    """Draw (or, with ``rng=None``, pick the fastest) timer overrides."""
    if rng is None:
        detection = milliseconds(5)
        spf_initial = milliseconds(20)
        spf_hold = milliseconds(100)
        fib = milliseconds(2)
    else:
        detection = rng.choice(_DETECTION_CHOICES)
        spf_initial = rng.choice(_SPF_INITIAL_CHOICES)
        spf_hold = rng.choice(_SPF_HOLD_CHOICES)
        fib = rng.choice(_FIB_CHOICES)
    return tuple(
        sorted(
            {
                "detection_delay": detection,
                "up_detection_delay": detection,
                "spf_initial_delay": spf_initial,
                "spf_hold": spf_hold,
                "spf_hold_max": 2 * spf_hold,
                "fib_update_delay": fib,
            }.items()
        )
    )


def scenario_labels(topology: str, ports: int) -> Tuple[str, ...]:
    """Table IV labels buildable on this (family, size).

    C4/C5/C7 need an across ring of at least three switches; C6/C7 fail
    across links, which plain fat trees do not have.
    """
    ring = ports // 2
    if topology == "fat-tree":
        return ("C1", "C2", "C3") if ring < 3 else ("C1", "C2", "C3", "C4", "C5")
    if topology == "f2tree":
        return ("C1", "C2", "C3", "C6") if ring < 3 else ALL_LABELS
    return ()


def generate_config(seed: int) -> TrialConfig:
    """Draw one trial configuration deterministically from ``seed``."""
    rng = RandomStreams(seed).stream("check-config")
    topology, ports = _TOPOLOGIES[rng.randrange(len(_TOPOLOGIES))]
    overrides = fast_overrides(rng)
    labels = scenario_labels(topology, ports)
    if labels and rng.random() < 0.4:
        return TrialConfig(
            topology=topology,
            ports=ports,
            profile="scenario",
            scenario=labels[rng.randrange(len(labels))],
            seed=seed,
            overrides=overrides,
            warmup=_WARMUP,
        )
    from ..failures.injector import fabric_links

    config = TrialConfig(
        topology=topology,
        ports=ports,
        seed=seed,
        overrides=overrides,
        warmup=_WARMUP,
    )
    candidates = fabric_links(build_topology(config))
    n_events = rng.randint(1, min(3, len(candidates)))
    links = rng.sample(candidates, n_events)
    # 2n distinct grid slots, ascending: the first n are failure times,
    # the rest hand out strictly-later restore times
    slots = sorted(rng.sample(range(EVENT_SLOTS), 2 * n_events))
    events = []
    for index, (a, b) in enumerate(links):
        at = _WARMUP + (slots[index] + 1) * EVENT_GRID
        restore_at: Optional[Time] = None
        if rng.random() < 0.5:
            restore_at = _WARMUP + (slots[n_events + index] + 1) * EVENT_GRID
        events.append((at, a, b, restore_at))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    return replace(config, events=tuple(events))
