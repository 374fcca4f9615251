"""Compact array-of-ints graph representation for large fabrics.

:class:`~repro.topology.graph.Topology` stores nodes and links as rich
dict-of-objects structures — ideal for the paper-scale experiments, but
wasteful when a k=32 fat tree (1280 switches, ~17k links) needs all-pairs
shortest paths.  :class:`CompactGraph` flattens a graph into CSR form:
node names become dense integer indices, adjacency becomes two int
arrays (``indptr``/``indices``), and the numpy-vectorized batch SPF in
:mod:`repro.routing.spf_batch` operates directly on those arrays.

Construction is canonical: names are sorted, per-row neighbor lists are
sorted, so two graphs with equal edge sets produce byte-identical
arrays regardless of input iteration order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple


@dataclass(frozen=True)
class CompactGraph:
    """An undirected graph in CSR (compressed sparse row) form.

    ``indices[indptr[i]:indptr[i + 1]]`` are the (sorted) neighbor
    indices of node ``i``; ``names[i]`` recovers the node's name.
    """

    names: Tuple[str, ...]
    index: Dict[str, int]
    indptr: "array[int]"
    indices: "array[int]"

    def __len__(self) -> int:
        return len(self.names)

    def degree(self, node: int) -> int:
        return self.indptr[node + 1] - self.indptr[node]

    @classmethod
    def from_adjacency(
        cls, adjacency: Mapping[str, Iterable[str]]
    ) -> "CompactGraph":
        """Build from a name -> neighbors mapping.

        Every node must appear as a key; edges pointing at unknown names
        are dropped (half-declared adjacency is not an edge — the same
        two-way rule link-state SPF applies).
        """
        names = tuple(sorted(adjacency))
        index = {name: i for i, name in enumerate(names)}
        indptr = array("l", [0])
        indices = array("l")
        for name in names:
            row = sorted(
                {index[peer] for peer in adjacency[name] if peer in index}
            )
            indices.extend(row)
            indptr.append(len(indices))
        return cls(names=names, index=index, indptr=indptr, indices=indices)
