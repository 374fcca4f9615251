"""The family table: one name, one fabric (``repro.core.fabrics``)."""

from __future__ import annotations

import pytest

from repro.check.config import ConfigError, TrialConfig
from repro.core.fabrics import FABRICS, build_fabric
from repro.topology.graph import LinkKind, TopologyError

#: one valid port count per family
VALID_PORTS = {
    "fat-tree": 4,
    "f2tree": 6,
    "f2tree-prototype": 4,
    "aspen": 4,
    "leaf-spine": 4,
    "f2-leaf-spine": 4,
    "vl2": 4,
    "f2-vl2": 4,
}


def test_every_family_has_a_valid_size():
    assert set(VALID_PORTS) == set(FABRICS)


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_builder_stamps_its_own_name(name):
    assert build_fabric(name, VALID_PORTS[name]).params["family"] == name


def test_unknown_family_lists_the_known_ones():
    with pytest.raises(TopologyError) as excinfo:
        build_fabric("moebius-tree", 8)
    message = str(excinfo.value)
    assert "moebius-tree" in message
    assert all(name in message for name in FABRICS)


def test_prototype_is_four_port_only():
    with pytest.raises(TopologyError):
        build_fabric("f2tree-prototype", 8)


@pytest.mark.parametrize("name,links,across", [
    ("leaf-spine", 48, 0),     # 8 leaves x 4 spines + 16 host links
    ("f2-leaf-spine", 52, 4),  # the same, spines ringed
])
def test_a_name_denotes_one_fabric(name, links, across):
    topo = build_fabric(name, 8)
    assert len(topo.links) == links
    assert sum(l.kind is LinkKind.ACROSS for l in topo.links.values()) == across


def test_trial_config_rejects_an_unknown_family():
    with pytest.raises(ConfigError, match="moebius-tree"):
        TrialConfig(topology="moebius-tree", ports=8)
