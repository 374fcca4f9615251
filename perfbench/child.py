"""One pass of one workload in a fresh process (started by run.py).

Set-up, then the pass's trials back to back, then one JSON line on
stdout.  A fresh process per pass means SPF memos and caches start cold
and ``ru_maxrss`` belongs to this workload alone — what a ``repro`` CLI
user pays.

The box this runs on is shared, and its speed wanders by 5-50 % for tens
of seconds at a time (invisibly: CPU time rises with wall time).  So a
fixed pure-python kernel — heap and dict traffic, like the simulator's —
is timed after set-up and after every trial, and each measured time is
also reported *corrected*: scaled by ``KERNEL_REFERENCE_S`` over the
kernel time measured around it.  Corrected seconds are seconds on a box
whose python runs the kernel in the reference time; on this box, when it
is quiet, they are seconds.

argv[1] is a JSON object: workload, seed, size, trace (bool), out
(directory for span files) and spawned_at (the parent's ``time.time()``
just before it started this process).
"""

from __future__ import annotations

import gc
import heapq
import json
import resource
import sys
import time
import traceback
from typing import Any, Dict

#: exit code when the environment would silently bench the wrong thing
EXIT_UNUSABLE = 2
#: what one kernel run takes on the box the baseline was measured on,
#: when nothing else runs there
KERNEL_REFERENCE_S = 0.045
KERNEL_RUNS = 5


def kernel_s() -> float:
    """Mean time of one run of the reference kernel, over ``KERNEL_RUNS``
    (0.23 s: long enough to average over sub-second bursts)."""
    start = time.perf_counter()
    for _ in range(KERNEL_RUNS):
        heap: list = []
        table: Dict[int, int] = {}
        for i in range(120_000):
            heapq.heappush(heap, (i * 7919) % 100_003)
            table[i & 1023] = i
            if i & 1:
                heapq.heappop(heap)
    return (time.perf_counter() - start) / KERNEL_RUNS


def main(spec: Dict[str, Any]) -> int:
    try:
        import numpy
    except ImportError:
        numpy = None
    from repro.routing import spf_batch
    from repro.sim.flow import fairshare

    if numpy is None or not (fairshare.have_numpy() and spf_batch.have_numpy()):
        # engine="auto" would fall back to the ~10x slower python engines
        print("perfbench: numpy is missing, so repro would silently run its "
              "pure-python engines; refusing to measure that", file=sys.stderr)
        return EXIT_UNUSABLE

    import workloads

    trials = workloads.plan(spec["workload"], spec["seed"], spec["size"])
    workloads.warm_up()
    setup_s = time.time() - spec["spawned_at"]
    kernel = [kernel_s()]

    probe = None
    if spec["trace"]:
        from layers import LayerProbe

        probe = LayerProbe()

    outputs: Dict[str, Dict[str, Any]] = {}
    raised: Dict[str, str] = {}
    trial_wall_s: Dict[str, float] = {}
    trial_corrected_s: Dict[str, float] = {}
    cpu_s = 0.0
    for trial in trials:
        if probe is not None:
            probe.begin_trial(trial["id"])
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            outputs[trial["id"]] = workloads.run_trial(trial)
        except Exception as error:  # a failed trial is counted, not fatal
            traceback.print_exc()
            raised[trial["id"]] = repr(error)
        trial_wall_s[trial["id"]] = time.perf_counter() - start
        cpu_s += time.process_time() - cpu_start
        if probe is not None:
            probe.end_trial(outputs.get(trial["id"], {}))
        kernel.append(kernel_s())
        trial_corrected_s[trial["id"]] = (
            trial_wall_s[trial["id"]] * KERNEL_REFERENCE_S * 2 / (kernel[-2] + kernel[-1])
        )

    report: Dict[str, Any] = {
        "trials": trials,
        "outputs": outputs,
        "raised": raised,
        "trial_corrected_s": trial_corrected_s,
        # the trials only: reading a traced trial's counters is not its cost
        "wall_s": sum(trial_wall_s.values()),
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "setup_corrected_s": setup_s * KERNEL_REFERENCE_S / kernel[0],
        "kernel_s": kernel,
        # Linux reports ru_maxrss in KiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "provenance": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "fairshare_numpy": fairshare.have_numpy(),
            "spf_batch_numpy": spf_batch.have_numpy(),
            "gc_enabled": gc.isenabled(),
        },
    }
    if probe is not None:
        report["layers"] = {**probe.values(), "proc.cpu_s": cpu_s}
        report["span_problems"] = probe.tracer.problems()
        if spec["out"]:
            probe.tracer.write(spec["out"], spec["workload"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
