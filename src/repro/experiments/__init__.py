"""Experiment harnesses: one module per table/figure of the paper.

==============================  ==========================================
paper artifact                  harness
==============================  ==========================================
Fig 2 / Table III (testbed)     :mod:`repro.experiments.testbed`
Table IV / Fig 4 / Fig 5        :mod:`repro.experiments.conditions`
Fig 6 (partition-aggregate)     :mod:`repro.experiments.partition_aggregate`
Fig 7 (Leaf-Spine / VL2)        :mod:`repro.experiments.other_topologies`
Table I                         :mod:`repro.core.scalability`
Table II                        :mod:`repro.core.backup_routes`
design ablations                :mod:`repro.experiments.ablations`
==============================  ==========================================
"""

from .aspen import AspenRow, render_aspen_comparison, run_aspen_comparison
from .congestion import (
    CongestionResult,
    render_congestion,
    run_congestion_sweep,
    run_reroute_congestion,
)
from .ablations import (
    DetectionDelayPoint,
    FourAcrossOutcome,
    SpfTimerPoint,
    TieBreakOutcome,
    count_c4_loops,
    run_detection_delay_sweep,
    run_four_across_c7,
    run_spf_timer_sweep,
)
from .common import (
    DEFAULT_WARMUP,
    Bundle,
    build_bundle,
    full_scale,
    hosts_left_to_right,
    leftmost_host,
    rightmost_host,
)
from .extensions import (
    RoutingComparisonRow,
    UnidirectionalOutcome,
    render_routing_comparison,
    render_unidirectional,
    run_centralized_comparison,
    run_pathvector_comparison,
    run_unidirectional,
)
from .conditions import (
    ConditionRun,
    DelayProfile,
    FigureFourRow,
    conditions_topology,
    render_figure_five,
    render_figure_four,
    run_condition,
    run_figure_five,
    run_figure_four,
)
from .other_topologies import (
    FigureSevenRow,
    figure_seven_topology,
    render_figure_seven,
    run_figure_seven,
)
from .partition_aggregate import (
    FigureSixData,
    PartitionAggregateConfig,
    PartitionAggregateResult,
    render_figure_six,
    run_figure_six,
    run_partition_aggregate,
)
from .recovery import (
    RecoveryResult,
    default_failed_links,
    reroute_delay_microseconds,
    run_recovery,
)
from .testbed import (
    TableThreeRow,
    render_table_three,
    run_table_three,
    run_testbed,
    testbed_topology,
)

__all__ = [
    "AspenRow",
    "render_aspen_comparison",
    "run_aspen_comparison",
    "CongestionResult",
    "render_congestion",
    "run_congestion_sweep",
    "run_reroute_congestion",
    "DetectionDelayPoint",
    "FourAcrossOutcome",
    "SpfTimerPoint",
    "TieBreakOutcome",
    "count_c4_loops",
    "run_detection_delay_sweep",
    "run_four_across_c7",
    "run_spf_timer_sweep",
    "DEFAULT_WARMUP",
    "Bundle",
    "build_bundle",
    "full_scale",
    "hosts_left_to_right",
    "leftmost_host",
    "rightmost_host",
    "RoutingComparisonRow",
    "UnidirectionalOutcome",
    "render_routing_comparison",
    "render_unidirectional",
    "run_centralized_comparison",
    "run_pathvector_comparison",
    "run_unidirectional",
    "ConditionRun",
    "DelayProfile",
    "FigureFourRow",
    "conditions_topology",
    "render_figure_five",
    "render_figure_four",
    "run_condition",
    "run_figure_five",
    "run_figure_four",
    "FigureSevenRow",
    "figure_seven_topology",
    "render_figure_seven",
    "run_figure_seven",
    "FigureSixData",
    "PartitionAggregateConfig",
    "PartitionAggregateResult",
    "render_figure_six",
    "run_figure_six",
    "run_partition_aggregate",
    "RecoveryResult",
    "default_failed_links",
    "reroute_delay_microseconds",
    "run_recovery",
    "TableThreeRow",
    "render_table_three",
    "run_table_three",
    "run_testbed",
    "testbed_topology",
]
