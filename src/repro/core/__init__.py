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

# perfbench's warm-up imports the testbed prototype from the package
from .f2tree import rewire_fat_tree_prototype

__all__ = ["rewire_fat_tree_prototype"]
