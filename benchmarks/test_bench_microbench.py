"""Microbenchmarks of the simulator substrate itself.

Not paper artifacts — these track the throughput of the hot paths that
every experiment's wall-clock time is made of (event loop, FIB lookups,
ECMP hashing, end-to-end packet forwarding), so performance regressions
in the substrate are visible.  These use real repetitions (unlike the
single-shot experiment benchmarks).
"""

from __future__ import annotations

from repro.core.f2tree import f2tree
from repro.experiments.common import build_bundle, leftmost_host, rightmost_host
from repro.net.ecmp import select_next_hop
from repro.net.fib import Fib, FibEntry
from repro.net.ip import IPv4Address, Prefix
from repro.sim.engine import Simulator
from repro.sim.units import microseconds, milliseconds
from repro.transport.udp import UdpSender, UdpSink


def test_bench_simulator_dispatch(benchmark):
    """Schedule+execute 10k no-op events."""

    def run() -> int:
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(i, lambda: None)
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    assert events == 10_000


def test_bench_fib_lookup(benchmark):
    """LPM over a realistically-sized DCN FIB (64 racks + backups)."""
    fib = Fib()
    for i in range(64):
        fib.install(
            FibEntry(Prefix(IPv4Address(f"10.11.{i}.0"), 24), (f"nh{i}",))
        )
    fib.install(FibEntry(Prefix("10.11.0.0/16"), ("right",), source="static"))
    fib.install(FibEntry(Prefix("10.10.0.0/15"), ("left",), source="static"))
    probes = [IPv4Address(f"10.11.{i % 64}.{i % 200 + 2}") for i in range(512)]

    def run() -> int:
        hits = 0
        for address in probes:
            if fib.lookup(address) is not None:
                hits += 1
        return hits

    assert benchmark(run) == 512


def test_bench_ecmp_hash(benchmark):
    candidates = ["a", "b", "c", "d"]
    flows = [(i, i * 7, 17, 10_000 + i, 20_000 + i) for i in range(512)]

    def run() -> int:
        return sum(
            1 for flow in flows if select_next_hop(candidates, flow, 3) in candidates
        )

    assert benchmark(run) == 512


def test_bench_end_to_end_forwarding(benchmark):
    """Full-stack packets/second: a converged 8-port F²Tree carrying a
    10 ms CBR burst (100 packets through 6 hops each)."""
    bundle = build_bundle(f2tree(8, hosts_per_tor=1))
    bundle.converge()
    topo = bundle.topology
    src = bundle.network.host(leftmost_host(topo))
    dst = bundle.network.host(rightmost_host(topo))
    sink = UdpSink(bundle.sim, dst, 7000)

    def run() -> int:
        before = sink.received
        start = bundle.sim.now
        sender = UdpSender(
            bundle.sim, src, dst.ip, 7000, interval=microseconds(100)
        )
        sender.start(at=start, stop_at=start + milliseconds(10))
        bundle.sim.run(until=start + milliseconds(15))
        return sink.received - before

    delivered = benchmark(run)
    assert delivered == 100
