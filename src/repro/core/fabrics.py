"""Every topology family, named once.

:data:`FABRICS` maps the name each builder stamps into
``Topology.params["family"]`` to that family's sizing rule over one
switch port count; :func:`build_fabric` is the one place a family name
becomes a topology, so one name cannot denote two fabrics.  Leaf-Spine
has ``ports`` leaves by ``max(2, ports // 2)`` spines, VL2 has
``d_a = d_i = ports``, Aspen fault tolerance 1, and the §III prototype
builds at ``ports == 4`` only.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..topology.aspen import aspen_tree
from ..topology.fattree import fat_tree
from ..topology.graph import Topology, TopologyError
from ..topology.leafspine import leaf_spine
from ..topology.vl2 import vl2
from .adapt import f2_leaf_spine, f2_vl2
from .f2tree import f2tree, rewire_fat_tree_prototype


def _spines(ports: int) -> int:
    return max(2, ports // 2)


#: family -> ``(ports, across_ports) -> Topology``
FABRICS: Dict[str, Callable[[int, int], Topology]] = {
    "fat-tree": lambda ports, across: fat_tree(ports),
    "f2tree": lambda ports, across: f2tree(ports, across_ports=across),
    "f2tree-prototype": lambda ports, across: rewire_fat_tree_prototype(
        fat_tree(ports)
    )[0],
    "aspen": lambda ports, across: aspen_tree(ports, 1),
    "leaf-spine": lambda ports, across: leaf_spine(ports, _spines(ports)),
    "f2-leaf-spine": lambda ports, across: f2_leaf_spine(ports, _spines(ports)),
    "vl2": lambda ports, across: vl2(ports, ports),
    "f2-vl2": lambda ports, across: f2_vl2(ports, ports),
}


def build_fabric(name: str, ports: int, across_ports: int = 2) -> Topology:
    """Build family ``name`` at ``ports`` by its sizing rule.

    An unknown name raises :class:`TopologyError` listing the known ones.
    """
    builder = FABRICS.get(name)
    if builder is None:
        raise TopologyError(
            f"unknown topology family {name!r}; known: {', '.join(FABRICS)}"
        )
    return builder(ports, across_ports)
