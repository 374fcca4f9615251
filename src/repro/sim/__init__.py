"""Discrete-event simulation substrate.

The paper evaluated F²Tree on a VMware testbed and in NS-3/DCE with real
Quagga routers; this package is the pure-Python substitute: a deterministic
event engine (:mod:`repro.sim.engine`), integer-nanosecond time units
(:mod:`repro.sim.units`) and named seeded random streams
(:mod:`repro.sim.randomness`).
"""
