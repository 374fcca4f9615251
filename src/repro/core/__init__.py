"""The paper's contribution: F²Tree construction, configuration, analysis.

* :mod:`~repro.core.f2tree` — topology builders and the rewiring plan;
* :mod:`~repro.core.backup_routes` — the two static backup routes per ring
  switch (Table II) and their installation;
* :mod:`~repro.core.failure_analysis` — the §II-C failure-condition
  taxonomy as an executable classifier;
* :mod:`~repro.core.scalability` — Table I's closed forms;
* :mod:`~repro.core.adapt` — the §V adaptations to Leaf-Spine and VL2;
* :mod:`~repro.core.fabrics` — every topology family by its one name.
"""

from .adapt import f2_leaf_spine, f2_vl2
from .configgen import (
    ConfigOptions,
    config_diff,
    render_fabric_configs,
    render_switch_config,
)
from .backup_routes import (
    RING_KINDS,
    RingNeighbors,
    backup_prefix_chain,
    backup_routes_for,
    configure_backup_routes,
    render_routing_table,
    ring_neighbors_of,
)
from .fabrics import FABRICS, build_fabric
from .f2tree import RewiringPlan, across_links, f2tree, rewire_fat_tree_prototype
from .failure_analysis import (
    FailureAnalysis,
    FailureCondition,
    agg_down_peer,
    analyze_scenario,
    classify_downward_failure,
    core_down_peer,
)
from .scalability import (
    ScalabilityRow,
    aspen_row,
    ddc_row,
    f10_row,
    f2tree_row,
    fat_tree_row,
    immediate_backup_links,
    node_reduction_vs_fat_tree,
    render_table_one,
    table_one,
    vl2_row,
)

__all__ = [
    "FABRICS",
    "build_fabric",
    "f2_leaf_spine",
    "f2_vl2",
    "ConfigOptions",
    "config_diff",
    "render_fabric_configs",
    "render_switch_config",
    "RING_KINDS",
    "RingNeighbors",
    "backup_prefix_chain",
    "backup_routes_for",
    "configure_backup_routes",
    "render_routing_table",
    "ring_neighbors_of",
    "RewiringPlan",
    "across_links",
    "f2tree",
    "rewire_fat_tree_prototype",
    "FailureAnalysis",
    "FailureCondition",
    "agg_down_peer",
    "analyze_scenario",
    "classify_downward_failure",
    "core_down_peer",
    "ScalabilityRow",
    "aspen_row",
    "ddc_row",
    "f10_row",
    "f2tree_row",
    "fat_tree_row",
    "immediate_backup_links",
    "node_reduction_vs_fat_tree",
    "render_table_one",
    "table_one",
    "vl2_row",
]
