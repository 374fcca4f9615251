"""Topology descriptions and builders (fat tree, Leaf-Spine, VL2, Aspen)."""
