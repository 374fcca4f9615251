"""Command-line interface: regenerate any paper artifact by name.

Usage::

    python -m repro list
    python -m repro run table3
    python -m repro run fig4 fig5 --out results/
    python -m repro run all --out results/
    python -m repro recover --topology fat-tree --trace out.jsonl
    python -m repro report out.jsonl

Each artifact is a self-contained function returning the rendered text
(the same renderers the benchmark suite asserts against).  ``recover``
runs a traced single-flow recovery experiment and prints its per-phase
breakdown; ``report`` re-analyzes a previously saved trace.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Dict, List, Optional, Sequence


def _table1() -> str:
    from .core.scalability import node_reduction_vs_fat_tree, render_table_one

    return "\n\n".join(
        [
            render_table_one(8),
            render_table_one(128),
            f"F2Tree node reduction vs fat tree @N=128: "
            f"{node_reduction_vs_fat_tree(128):.1%}",
        ]
    )


def _table2() -> str:
    from .core.backup_routes import render_routing_table
    from .core.f2tree import f2tree
    from .experiments.common import build_bundle
    from .topology.graph import NodeKind

    topo = f2tree(6)
    bundle = build_bundle(topo)
    bundle.converge()
    agg = topo.pod_members(NodeKind.AGG, 0)[0].name
    return render_routing_table(bundle.network, agg)


def _table3() -> str:
    from .experiments.testbed import render_table_three, run_table_three

    return render_table_three(run_table_three())


def _fig4() -> str:
    from .experiments.conditions import render_figure_four, run_figure_four

    return render_figure_four(run_figure_four())


def _fig5() -> str:
    from .experiments.conditions import render_figure_five, run_figure_five

    return render_figure_five(run_figure_five())


def _fig6() -> str:
    from .experiments.partition_aggregate import render_figure_six, run_figure_six

    return render_figure_six([run_figure_six(1), run_figure_six(5)])


def _fig7() -> str:
    from .experiments.other_topologies import (
        render_figure_seven,
        run_figure_seven,
    )

    return render_figure_seven(run_figure_seven())


def _ablations() -> str:
    from .experiments.ablations import (
        count_c4_loops,
        run_detection_delay_sweep,
        run_four_across_c7,
        run_spf_timer_sweep,
    )

    pieces = []
    spf = run_spf_timer_sweep()
    pieces.append("SPF-timer sweep (fat-tree loss tracks the timer):")
    pieces.extend(
        f"  spf={p.spf_initial_delay_ms:.0f}ms fat={p.fat_tree_loss_ms:.1f}ms "
        f"f2={p.f2tree_loss_ms:.1f}ms"
        for p in spf
    )
    detection = run_detection_delay_sweep()
    pieces.append("Detection-delay sweep (F2Tree loss == detection):")
    pieces.extend(
        f"  detect={p.detection_delay_ms:.0f}ms f2={p.f2tree_loss_ms:.1f}ms"
        for p in detection
    )
    two, four = run_four_across_c7()
    pieces.append(
        f"Four across ports on C7: 2-port {two.connectivity_loss_ms:.1f}ms"
        f" -> 4-port {four.connectivity_loss_ms:.1f}ms"
    )
    clean = count_c4_loops("prefix-length")
    flawed = count_c4_loops("none")
    pieces.append(
        f"Tie-break loops under C4: prefix-length "
        f"{clean.flows_looping}/{clean.flows_traced}, equal-prefix "
        f"{flawed.flows_looping}/{flawed.flows_traced}"
    )
    return "\n".join(pieces)


def _extensions() -> str:
    from .experiments.extensions import (
        render_routing_comparison,
        render_unidirectional,
        run_centralized_comparison,
        run_pathvector_comparison,
        run_unidirectional,
    )

    return "\n\n".join(
        [
            render_routing_comparison(
                "BGP-style routing (valley-free), downward failure",
                run_pathvector_comparison(),
            ),
            render_routing_comparison(
                "Centralized (SDN-style) routing, downward failure",
                run_centralized_comparison(),
            ),
            render_unidirectional(
                [run_unidirectional("bfd"), run_unidirectional("interface")]
            ),
        ]
    )


def _aspen() -> str:
    from .experiments.aspen import render_aspen_comparison, run_aspen_comparison

    return render_aspen_comparison(run_aspen_comparison())


def _congestion() -> str:
    from .experiments.congestion import render_congestion, run_congestion_sweep

    return render_congestion(run_congestion_sweep())


def _configs() -> str:
    from .core.configgen import render_fabric_configs
    from .core.f2tree import f2tree
    from .topology.addressing import assign_addresses

    topo = f2tree(6)
    assign_addresses(topo)
    configs = render_fabric_configs(topo)
    sample = ["# one config per switch; sample below", ""]
    for name in list(configs)[:1]:
        sample.append(configs[name])
    sample.append(f"\n# ({len(configs)} switch configs total)")
    return "\n".join(sample)


def _census() -> str:
    from .analysis.census import exhaustive_condition_census, render_census
    from .core.f2tree import f2tree
    from .topology.graph import NodeKind

    topo = f2tree(8)
    tor = topo.pod_members(NodeKind.TOR, 0)[-1].name
    return render_census(
        [exhaustive_condition_census(topo, tor, k) for k in (1, 2, 3, 4)]
    )


def _bisection() -> str:
    from .analysis.bisection import bisection_report
    from .core.f2tree import f2tree
    from .topology.fattree import fat_tree

    return bisection_report([fat_tree(4), fat_tree(8), f2tree(6), f2tree(8)])


ARTIFACTS: Dict[str, tuple] = {
    "table1": (_table1, "Table I: scalability comparison"),
    "table2": (_table2, "Table II: routing table with backup routes"),
    "table3": (_table3, "Table III / Fig 2: testbed recovery"),
    "fig4": (_fig4, "Fig 4: conditions C1-C7"),
    "fig5": (_fig5, "Fig 5: end-to-end delay profiles"),
    "fig6": (_fig6, "Fig 6: partition-aggregate deadline misses"),
    "fig7": (_fig7, "Fig 7: Leaf-Spine and VL2 adaptations"),
    "ablations": (_ablations, "Design-choice ablations"),
    "extensions": (_extensions, "§V extensions: BGP / SDN / unidirectional"),
    "aspen": (_aspen, "Aspen-tree baseline comparison (§VI)"),
    "congestion": (_congestion, "Backup-path congestion probe"),
    "configs": (_configs, "Quagga-style switch configurations"),
    "bisection": (_bisection, "Bisection-bandwidth report"),
    "census": (_census, "Exhaustive §II-C failure-condition census"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts of the F2Tree paper (ICDCS 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available artifacts")
    run = sub.add_parser("run", help="regenerate artifacts")
    run.add_argument(
        "artifacts", nargs="+",
        help="artifact names (see 'list'), or 'all'",
    )
    run.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="also write each artifact to <out>/<name>.txt",
    )
    recover = sub.add_parser(
        "recover",
        help="run a traced recovery experiment and print its phase breakdown",
    )
    recover.add_argument(
        "--topology", choices=("fat-tree", "f2tree"), default="fat-tree",
        help="the §III testbed topology to fail (default: fat-tree)",
    )
    recover.add_argument(
        "--transport", choices=("udp", "tcp"), default="udp",
        help="probe transport (default: udp)",
    )
    recover.add_argument(
        "--trace", type=pathlib.Path, default=None,
        help="write the raw event trace to this JSONL file",
    )
    recover.add_argument(
        "--metrics", action="store_true",
        help="also dump the metrics registry",
    )
    recover.add_argument(
        "--json", action="store_true",
        help="print the breakdown as JSON instead of the ASCII timeline",
    )
    report = sub.add_parser(
        "report", help="per-phase recovery breakdown from a saved trace"
    )
    report.add_argument("trace", type=pathlib.Path, help="trace JSONL file")
    report.add_argument(
        "--json", action="store_true",
        help="print the breakdown as JSON instead of the ASCII timeline",
    )
    from .campaign.sweeps import SWEEPS

    sweep = sub.add_parser(
        "sweep",
        help="run an experiment campaign, optionally across worker processes",
    )
    sweep.add_argument(
        "sweep", choices=sorted(SWEEPS),
        help="which campaign to run (see EXPERIMENTS.md for paper mapping)",
    )
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = in-process serial; results are "
        "identical for any value)",
    )
    sweep.add_argument(
        "--timeout", type=float, default=None,
        help="per-trial wall-clock timeout in seconds",
    )
    sweep.add_argument(
        "--ports", type=int, default=None,
        help="switch port count of the swept topologies (default: sweep's own)",
    )
    sweep.add_argument(
        "--seed", type=int, default=1, help="master seed (default 1)",
    )
    sweep.add_argument(
        "--limit", type=int, default=None,
        help="run only the first N trials of the sweep (smoke tests)",
    )
    sweep.add_argument(
        "--json", action="store_true",
        help="print the deterministic campaign report as JSON",
    )
    sweep.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="also write the JSON report to this file",
    )
    check = sub.add_parser(
        "check",
        help="fuzz the network with randomized failure trials and check "
        "the invariant catalog (see DESIGN.md)",
    )
    check.add_argument(
        "--trials", type=int, default=50,
        help="number of fuzz trials to run (default 50)",
    )
    check.add_argument(
        "--seed", type=int, default=1,
        help="campaign master seed; trial seeds derive from it (default 1)",
    )
    check.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (results identical for any value)",
    )
    check.add_argument(
        "--timeout", type=float, default=None,
        help="per-trial wall-clock timeout in seconds",
    )
    check.add_argument(
        "--json", action="store_true",
        help="print the deterministic campaign report as JSON",
    )
    check.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("check-failures"),
        help="directory for replay bundles of violating trials "
        "(default: check-failures/)",
    )
    check.add_argument(
        "--replay", type=pathlib.Path, default=None,
        help="replay a saved bundle and verify it reproduces byte-identically",
    )
    check.add_argument(
        "--selftest", action="store_true",
        help="run the seeded fault-mutant matrix (including the "
        "cross-backend flow mutants) instead of fuzz trials",
    )
    check.add_argument(
        "--backend", choices=("packet", "flow"), default="packet",
        help="simulation backend for fuzz trials (default packet); "
        "'flow' runs the fluid data plane on the same configs",
    )
    check.add_argument(
        "--differential", type=int, default=None, metavar="N",
        help="run N cross-backend differential trials (each fuzzed "
        "config executed on both backends and compared) instead of "
        "single-backend fuzzing",
    )
    bench = sub.add_parser(
        "bench",
        help="throughput benchmarks (fair-share solver, measured "
        "fluid/packet ratio, k=48 fluid trial); exit 1 when an absolute "
        "floor fails",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="smaller workloads, no campaign comparison (CI smoke)",
    )
    bench.add_argument(
        "--no-campaign", action="store_true",
        help="skip the serial-vs-parallel campaign comparison",
    )
    bench.add_argument(
        "--json", action="store_true",
        help="print the result as JSON instead of the summary",
    )
    bench.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="also write the JSON result to this file",
    )
    trace = sub.add_parser(
        "trace",
        help="causal span tree of a traced recovery run, with Perfetto/"
        "chrome://tracing and JSONL exporters (see DESIGN.md §10)",
    )
    trace.add_argument(
        "--topology", choices=("fat-tree", "f2tree"), default="fat-tree",
        help="the §III testbed topology to fail (default: fat-tree)",
    )
    trace.add_argument(
        "--transport", choices=("udp", "tcp"), default="udp",
        help="probe transport (default: udp)",
    )
    trace.add_argument(
        "--chrome", type=pathlib.Path, default=None,
        help="write the Chrome trace-event JSON (open in ui.perfetto.dev "
        "or chrome://tracing) to this file",
    )
    trace.add_argument(
        "--spans", type=pathlib.Path, default=None,
        help="write the span tree as JSONL (one span per line) to this file",
    )
    trace.add_argument(
        "--json", action="store_true",
        help="print the span tree as JSON instead of the ASCII tree",
    )
    trace.add_argument(
        "--validate", type=pathlib.Path, default=None, metavar="TRACE_JSON",
        help="schema-check a Chrome trace-event file instead of running "
        "(0 valid, 1 problems found, 2 unreadable)",
    )
    trace.add_argument(
        "--sweep", choices=sorted(SWEEPS), default=None,
        help="run this campaign in telemetry mode instead: per-phase "
        "percentiles and cache hit rates per grid cell",
    )
    trace.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for --sweep (results identical for any value)",
    )
    trace.add_argument(
        "--ports", type=int, default=None,
        help="switch port count for --sweep topologies (default: sweep's own)",
    )
    trace.add_argument(
        "--seed", type=int, default=1,
        help="master seed for --sweep (default 1)",
    )
    trace.add_argument(
        "--limit", type=int, default=None,
        help="run only the first N trials of --sweep (smoke tests)",
    )
    trace.add_argument(
        "--timeout", type=float, default=None,
        help="per-trial wall-clock timeout in seconds for --sweep",
    )
    trace.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="also write the --sweep JSON report to this file",
    )
    from .lint.cli import add_lint_arguments

    lint = sub.add_parser(
        "lint",
        help="simulation-safety static analysis: determinism, "
        "serialization canonicality, seed discipline (see DESIGN.md §12)",
    )
    add_lint_arguments(lint)
    verify = sub.add_parser(
        "verify",
        help="statically prove (or refute) the F2Tree backup properties "
        "of a built topology — no simulation (see DESIGN.md §8)",
    )
    verify.add_argument(
        "--topology", default="f2tree",
        help="topology family, as stamped by its builder: f2tree, "
        "f2tree-prototype (4-port only), f2-leaf-spine, f2-vl2 (rewired); "
        "fat-tree, leaf-spine, vl2, aspen (plain) (default: f2tree)",
    )
    verify.add_argument(
        "--ports", type=int, default=8,
        help="switch port count (default 8)",
    )
    verify.add_argument(
        "--across-ports", type=int, default=2,
        help="across links per ring hop for f2tree builds (default 2)",
    )
    verify.add_argument(
        "--max-failures", type=int, default=2,
        help="largest failure-set size k to verify (exhaustive for k<=2, "
        "sampled above; default 2)",
    )
    verify.add_argument(
        "--samples", type=int, default=50,
        help="failure sets sampled per k when k>2 (default 50)",
    )
    verify.add_argument(
        "--seed", type=int, default=1,
        help="seed for k>2 failure-set sampling (default 1)",
    )
    verify.add_argument(
        "--tie-break", choices=("prefix-length", "none"),
        default="prefix-length",
        help="backup-route tie break to verify (default: prefix-length)",
    )
    verify.add_argument(
        "--mutate", default=None, metavar="NAME",
        help="verify a seeded defect build instead (see --selftest for "
        "the full matrix); the mutant picks its own topology",
    )
    verify.add_argument(
        "--selftest", action="store_true",
        help="run the seeded wiring/FIB mutant matrix: each must be "
        "refuted by its expected check and its witness must replay",
    )
    verify.add_argument(
        "--json", action="store_true",
        help="print the full report as JSON",
    )
    verify.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="also write the JSON report to this file",
    )
    return parser


def _cmd_recover(args: argparse.Namespace) -> int:
    from .experiments.testbed import run_testbed
    from .obs import Observability, TraceAnalysisError, render_breakdown
    from .sim.units import to_microseconds

    obs = Observability(enabled=True)
    try:
        result = run_testbed(args.topology, args.transport, obs=obs)
    except TraceAnalysisError as exc:
        print(f"cannot attribute the recovery: {exc}", file=sys.stderr)
        return 2
    assert result.breakdown is not None
    if args.json:
        print(result.breakdown.to_json())
    else:
        print(render_breakdown(result.breakdown))
        if result.connectivity_loss is not None:
            print(
                f"\nconnectivity loss (timeseries metric): "
                f"{to_microseconds(result.connectivity_loss):.0f} us, "
                f"{result.packets_lost} packets lost"
            )
        if result.collapse_duration is not None:
            print(
                f"\nthroughput collapse (timeseries metric): "
                f"{to_microseconds(result.collapse_duration):.0f} us"
            )
    if args.metrics:
        print()
        print(obs.metrics.render())
    if args.trace is not None:
        count = obs.trace.write_jsonl(args.trace)
        print(f"\nwrote {count} trace events to {args.trace}", file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs import TraceAnalysisError, analyze_recovery, read_jsonl, render_breakdown

    try:
        events = read_jsonl(args.trace)
        breakdown = analyze_recovery(events)
    except (TraceAnalysisError, OSError, ValueError, KeyError, TypeError) as exc:
        # unusable input is a usage error (2), not a violation (1)
        print(f"cannot analyze {args.trace}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(breakdown.to_json())
    else:
        print(render_breakdown(breakdown))
    return 0


def _write_json(out: Optional[pathlib.Path], text: str, what: str) -> None:
    """Write ``text`` (a JSON document ending in a newline) to ``--out``,
    when given, creating its directory first."""
    if out is None:
        return
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    print(f"wrote {what} to {out}", file=sys.stderr)


def _run_sweep(args: argparse.Namespace, telemetry: bool) -> int:
    """Run the ``args.sweep`` campaign: ``repro sweep`` and ``repro trace
    --sweep`` (which adds ``telemetry``) share every option."""
    from .campaign.runner import run_campaign
    from .campaign.sweeps import SWEEPS

    sweep = SWEEPS[args.sweep]
    ports = args.ports if args.ports is not None else sweep.default_ports
    specs = sweep.build(ports, args.seed, args.timeout)
    if args.limit is not None:
        specs = specs[: max(0, args.limit)]
    if not specs:
        print("sweep selected no trials", file=sys.stderr)
        return 2
    report = run_campaign(
        specs,
        name=args.sweep,
        workers=args.workers,
        timeout=args.timeout,
        campaign_seed=args.seed,
        telemetry=telemetry,
    )
    print(report.to_json() if args.json else report.render())
    _write_json(
        args.out, report.to_json() + "\n",
        "telemetry report" if telemetry else "campaign report",
    )
    return 0 if not report.failed else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from .campaign.runner import run_campaign
    from .campaign.spec import TrialSpec
    from .check.bundle import BundleError, replay_bundle, write_bundle
    from .check.config import TrialConfig
    from .check.mutants import render_selftest, run_selftest
    from .check.shrink import shrink_config

    if args.replay is not None:
        try:
            reproduced, detail = replay_bundle(args.replay)
        except (BundleError, OSError, ValueError, KeyError) as exc:
            print(f"cannot replay {args.replay}: {exc}", file=sys.stderr)
            return 2
        print(detail)
        return 0 if reproduced else 1
    if args.selftest:
        from .check.differential import run_flow_selftest

        results = run_selftest() + run_flow_selftest()
        print(render_selftest(results))
        return 0 if all(r.ok for r in results) else 1

    if args.differential is not None:
        specs = [
            TrialSpec.make("diff", seed=None, timeout=args.timeout, index=i)
            for i in range(max(0, args.differential))
        ]
        if not specs:
            print("no differential trials requested", file=sys.stderr)
            return 2
        report = run_campaign(
            specs,
            name="diff",
            workers=args.workers,
            timeout=args.timeout,
            campaign_seed=args.seed,
        )
        print(report.to_json() if args.json else report.render())
        disagreeing = [
            r for r in report.succeeded
            if r.payload is not None and not r.payload.get("agree", True)
        ]
        for record in disagreeing:
            print(
                f"backend disagreement in {record.spec.trial_id}: "
                f"{'; '.join(record.payload['disagreements'])}",
                file=sys.stderr,
            )
        return 1 if (report.failed or disagreeing) else 0

    specs = [
        TrialSpec.make(
            "check", seed=None, timeout=args.timeout, index=i,
            backend=args.backend,
        )
        for i in range(max(0, args.trials))
    ]
    if not specs:
        print("no trials requested", file=sys.stderr)
        return 2
    report = run_campaign(
        specs,
        name="check",
        workers=args.workers,
        timeout=args.timeout,
        campaign_seed=args.seed,
    )
    print(report.to_json() if args.json else report.render())
    violating = [
        r for r in report.succeeded
        if r.payload is not None and r.payload.get("n_violations")
    ]
    for record in violating:
        config = TrialConfig.from_dict(record.payload["config"])
        shrunk, outcome = shrink_config(config)
        bundle_path = args.out / f"{record.spec.seed}.json"
        try:
            write_bundle(bundle_path, shrunk, outcome)
            where = str(bundle_path)
        except BundleError as exc:
            where = f"UNWRITTEN ({exc})"
        print(
            f"violation in {record.spec.trial_id}: "
            f"{record.payload['invariants']} -> replay bundle {where}",
            file=sys.stderr,
        )
    return 1 if (report.failed or violating) else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import check_floors, render, run_hotpath_bench, to_json

    result = run_hotpath_bench(
        quick=args.quick, campaign=not args.no_campaign
    )
    print(to_json(result) if args.json else render(result))
    _write_json(args.out, to_json(result), "bench result")
    failures = check_floors(result)
    for failure in failures:
        print(f"BELOW FLOOR {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .core.fabrics import build_fabric
    from .topology.graph import TopologyError
    from .verify import run_verification

    if args.selftest:
        from .verify.mutants import render_selftest, run_selftest

        results = run_selftest(max_failures=args.max_failures)
        print(render_selftest(results))
        return 0 if all(r.ok for r in results) else 1
    try:
        if args.mutate is not None:
            from .verify.mutants import MUTANTS, run_mutant

            if args.mutate not in MUTANTS:
                print(
                    f"unknown mutant {args.mutate!r}; available: "
                    f"{', '.join(sorted(MUTANTS))}",
                    file=sys.stderr,
                )
                return 2
            report = run_mutant(
                MUTANTS[args.mutate], max_failures=args.max_failures
            )
        else:
            topo = build_fabric(args.topology, args.ports, args.across_ports)
            report = run_verification(
                topo,
                max_failures=args.max_failures,
                samples=args.samples,
                seed=args.seed,
                tie_break=args.tie_break,
            )
    except TopologyError as exc:
        print(f"cannot build topology: {exc}", file=sys.stderr)
        return 2
    print(report.to_json() if args.json else report.render())
    _write_json(args.out, report.to_json() + "\n", "verification report")
    return 0 if report.certified else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import (
        ExportError,
        Observability,
        build_recovery_spans,
        counters_from_metrics,
        validate_chrome_trace_file,
        write_chrome_trace,
        write_spans_jsonl,
    )

    if args.validate is not None:
        try:
            problems = validate_chrome_trace_file(args.validate)
        except ExportError as exc:
            print(f"cannot validate {args.validate}: {exc}", file=sys.stderr)
            return 2
        for problem in problems:
            print(problem, file=sys.stderr)
        if problems:
            print(
                f"{args.validate}: {len(problems)} schema problem(s)",
                file=sys.stderr,
            )
            return 1
        print(f"{args.validate}: valid Chrome trace-event JSON")
        return 0

    if args.sweep is not None:
        return _run_sweep(args, telemetry=True)

    from .experiments.testbed import run_testbed

    obs = Observability(enabled=True, capacity=0)
    result = run_testbed(args.topology, args.transport, obs=obs)
    tree = build_recovery_spans(
        obs.trace,
        breakdown=result.breakdown,
        counters=counters_from_metrics(obs.metrics.snapshot()),
        evicted=obs.trace.evicted,
    )
    print(tree.to_json(indent=2) if args.json else tree.render())
    try:
        if args.chrome is not None:
            count = write_chrome_trace(tree, args.chrome)
            print(
                f"wrote {count} trace events to {args.chrome}", file=sys.stderr
            )
        if args.spans is not None:
            count = write_spans_jsonl(tree, args.spans)
            print(f"wrote {count} spans to {args.spans}", file=sys.stderr)
    except OSError as exc:
        print(f"cannot write export: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, (_fn, description) in ARTIFACTS.items():
            print(f"{name:<12} {description}")
        return 0
    if args.command == "recover":
        return _cmd_recover(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "sweep":
        return _run_sweep(args, telemetry=False)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "lint":
        from .lint.cli import run_lint

        return run_lint(args)

    wanted: List[str] = list(args.artifacts)
    if wanted == ["all"]:
        wanted = list(ARTIFACTS)
    unknown = [name for name in wanted if name not in ARTIFACTS]
    if unknown:
        print(f"unknown artifact(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(ARTIFACTS)}", file=sys.stderr)
        return 2

    for name in wanted:
        fn, description = ARTIFACTS[name]
        started = time.monotonic()
        text = fn()
        elapsed = time.monotonic() - started
        print(f"=== {name}: {description} ({elapsed:.1f}s) ===")
        print(text)
        print()
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{name}.txt").write_text(text + "\n")
    return 0
