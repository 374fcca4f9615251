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
