"""Static verifier tests: certification of clean builders, the mutant
self-test diagonal, the bridge to the dynamic fuzzer's fault mutants,
and the CLI exit-code contract.

The key acceptance property (ISSUE: differential oracle) splits in two:

* every wiring/FIB fault the dynamic fuzzer catches is refuted
  *statically* by ``repro.verify`` (no packet needs to be lost first);
* every static counterexample that corresponds to a forwarding fault
  replays under ``CheckedSimulator`` — the witness is not an artifact
  of the symbolic model.
"""

from __future__ import annotations

import json

import pytest

from repro.check.execute import snapshot_fibs
from repro.check.mutants import MUTANTS as DYNAMIC_MUTANTS
from repro.check.mutants import diagonals as dynamic_diagonals
from repro.cli import main
from repro.experiments.common import DEFAULT_WARMUP, build_bundle
from repro.core.fabrics import build_fabric
from repro.selftest import run
from repro.verify.checks import SEV_ERROR, run_verification
from repro.verify.model import StaticNetworkModel
from repro.verify.mutants import CHECK_EQUIVALENTS, MUTANTS, diagonals, run_mutant
from repro.verify.replay import replay_witness

# ------------------------------------------------------------ certification

#: clean builds the verifier must certify: the rewired fabrics and the
#: plain baselines (which degrade on downward failure — warnings — but
#: violate no claim the paper actually makes about them).
CLEAN_BUILDS = [
    pytest.param("f2tree", 6, id="fattree-6"),  # the paper's fabric
    pytest.param("f2tree", 8, id="fattree-8"),  # the acceptance-command build
    ("fat-tree", 4),       # plain fat tree, no rings, no backups
    pytest.param("f2-leaf-spine", 8, id="leaf-spine-8"),  # spine ring
    pytest.param("leaf-spine", 8, id="leaf-spine-plain-8"),
    pytest.param("vl2", 4, id="vl2-plain-4"),
    ("aspen", 4),
]


#: the exact k=2 census of three of those builds — how many failure sets
#: and fall-through states the loop-freedom walk examined and what it
#: found — so a change to the walk that still certifies cannot pass
#: silently: (loop-freedom stats, totals)
CENSUS = {
    # f2tree(8): the acceptance build, no caveat at all
    ("f2tree", 8): (
        {
            "blackholes": 0, "caveat_cycles": 0, "error_cycles": 0,
            "failure_sets": {"k1": 36, "k2": 16110},
            "fallthrough_states": 49392, "partitioned": 0,
        },
        {},
    ),
    # f2tree(6): the two-failure ring ping-pong, as caveats only
    ("f2tree", 6): (
        {
            "blackholes": 0, "caveat_cycles": 24, "error_cycles": 0,
            "failure_sets": {"k1": 18, "k2": 2145},
            "fallthrough_states": 4464, "partitioned": 0,
        },
        {"loop-freedom/transient-ring-loop/caveat": 24},
    ),
    # plain fat tree: warnings and dead ends, some across a real cut
    ("fat-tree", 4): (
        {
            "blackholes": 1520, "caveat_cycles": 0, "error_cycles": 0,
            "failure_sets": {"k2": 496},
            "fallthrough_states": 1472, "partitioned": 72,
        },
        {
            "coverage/unprotected-downward-link/warning": 48,
            "loop-freedom/transient-blackhole/warning": 1520,
            "wiring/no-across-rings/info": 1,
        },
    ),
}


@pytest.mark.parametrize("family,ports", CLEAN_BUILDS)
def test_clean_builder_is_certified(family, ports):
    report = run_verification(
        build_fabric(family, ports), max_failures=2
    )
    assert report.certified, (
        f"{family}/{ports} must certify; refuted: {report.refuted_checks()}"
        f"\n{report.render()}"
    )
    assert report.verdict == "CERTIFIED"
    assert report.refuted_checks() == []
    if (family, ports) in CENSUS:
        loop_stats, totals = CENSUS[family, ports]
        assert report.stats["loop-freedom"] == loop_stats
        assert report.totals == totals


@pytest.mark.parametrize("family,ports", [
    pytest.param("f2tree", 8, id="fattree-8"),
    ("fat-tree", 8),
    pytest.param("leaf-spine", 8, id="leaf-spine-plain-8"),
    pytest.param("vl2", 4, id="vl2-plain-4"),
])
def test_model_fibs_equal_the_converged_simulator(family, ports):
    """The model's FIBs — routed entries from one whole-fabric batch
    solve — equal, entry for entry, what a cold-started packet network
    converges to through its per-origin SPF engines."""
    model = StaticNetworkModel(build_fabric(family, ports))
    bundle = build_bundle(build_fabric(family, ports))
    bundle.sim.run(until=DEFAULT_WARMUP)
    assert snapshot_fibs(bundle.network) == {
        name: {
            str(entry.prefix): sorted(str(hop) for hop in entry.next_hops)
            for entry in entries
        }
        for name, entries in model.fibs.items()
    }


def test_f2tree_two_failure_loop_is_a_caveat_not_an_error():
    """The paper's documented limitation — two failures on one ring can
    transiently ping-pong until convergence — must surface as an explicit
    caveat finding while the fabric still certifies."""
    report = run_verification(
        build_fabric("f2tree", 6), max_failures=2
    )
    assert report.certified
    assert report.severity_total("caveat") > 0
    assert any(
        f.defect == "transient-ring-loop"
        and f.witness is not None
        and len(f.witness.failed) == 2
        for f in report.caveats
    )
    # the caveat needs exactly two failures: k=1 never loops the ring
    k1 = run_verification(
        build_fabric("f2tree", 6), max_failures=1
    )
    assert k1.certified and k1.severity_total("caveat") == 0


@pytest.mark.parametrize("family,ports", [
    # rewire_fat_tree_prototype steals core ports for the pair ring, so
    # the partner's converged route to half the pods runs through its
    # ring neighbor: a genuine one-failure transient loop (DESIGN.md §8)
    pytest.param("f2tree-prototype", 4, id="prototype-4"),
    # f2_vl2's ring neighbor does not share the ToR's uplinks and the
    # across links leak into SPF: one failure ping-pongs agg<->agg
    pytest.param("f2-vl2", 4, id="vl2-4"),
])
def test_known_unsound_adaptations_are_refuted(family, ports):
    """True positives: builds whose backup scheme violates the paper's
    own soundness argument are refuted, not rubber-stamped — a single
    failure already yields a forwarding loop along the ring."""
    report = run_verification(
        build_fabric(family, ports), max_failures=1
    )
    assert not report.certified
    loops = [
        f for f in report.errors
        if f.defect == "forwarding-loop"
        and f.witness is not None
        and f.witness.kind == "loop"
        and len(f.witness.failed) == 1
    ]
    assert loops, report.render()


def test_verification_is_deterministic():
    a = run_verification(build_fabric("f2tree", 6), max_failures=2)
    b = run_verification(build_fabric("f2tree", 6), max_failures=2)
    assert a.to_dict() == b.to_dict()


# ------------------------------------------------- mutant self-test diagonal

#: mutants whose defect manifests as a forwarding fault, and therefore
#: must produce a witness that replays under CheckedSimulator; the other
#: two (ring-link-cut, ring-order-swapped) are census/spec defects that
#: static analysis sees *before* any packet would be lost.
REPLAYABLE = {
    "statics-withdrawn",
    "backup-tiebreak-none",
    "lpm-inverted",
    "backup-prefix-too-long",
    "pod-ring-unwired",
    "cross-pod-across",
}


def diagonal_result(name, oracle_diagonals):
    """The harness's row for the one named diagonal."""
    (result,) = run(d for d in oracle_diagonals if d.name == name)
    return result


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_refuted_by_expected_check(name):
    result = diagonal_result(name, diagonals(max_failures=2))
    assert result.baseline == (), (
        f"baseline for {name} must certify, refuted: {result.baseline}"
    )
    assert result.expected in result.caught, (
        f"{name} must be refuted by {result.expected!r}, got {result.caught}"
    )
    if name in REPLAYABLE:
        assert result.replayed is True, f"{name}: witness must replay dynamically"
    else:
        assert result.replayed is None
    assert result.ok
    if name == "cross-pod-across":
        # the stray link lands on an agg that already uses every port
        report = run_mutant(MUTANTS[name], max_failures=1)
        assert report.totals["wiring/port-budget/error"] == 1


def test_selftest_matrix_all_green():
    results = run(diagonals(max_failures=2))
    assert sorted(r.name for r in results) == sorted(MUTANTS)
    assert all(r.ok for r in results)


@pytest.mark.parametrize("name", ["statics-withdrawn", "backup-tiebreak-none"])
def test_a_witness_does_not_replay_on_the_clean_build(name):
    """The replay has teeth: a mutant's black hole or ring loop does not
    show on the unmutated f2tree, whose backups and tie-break hold."""
    witness = next(
        finding.witness for finding in run_mutant(MUTANTS[name]).findings
        if finding.severity == SEV_ERROR and finding.witness is not None
    )
    assert replay_witness(build_fabric("f2tree", 6), witness) is False


# -------------------------------------------------- bridge to the dyn fuzzer

@pytest.mark.parametrize("dynamic_name", sorted(CHECK_EQUIVALENTS))
def test_dynamic_fault_has_a_static_twin(dynamic_name):
    """Both halves of a twin hold: the fuzzer catches the FIB/wiring
    fault dynamically by exactly its invariant, and the verifier refutes
    its twin statically, before any packet is lost."""
    dynamic = diagonal_result(dynamic_name, dynamic_diagonals())
    assert dynamic.ok and dynamic.caught == (dynamic.expected,)
    static = diagonal_result(CHECK_EQUIVALENTS[dynamic_name], diagonals())
    assert static.ok and static.expected in static.caught


def test_behavioural_faults_have_no_static_twin():
    """Protocol-behaviour faults (flooding, detection, channel loss,
    a corrupted SPF engine) are invisible to a model of
    installed state — deliberately unmapped."""
    unmapped = set(DYNAMIC_MUTANTS) - set(CHECK_EQUIVALENTS)
    assert unmapped == {
        "lsa-flood-dropped", "detection-disabled", "channel-leak",
        "spf-engine-corrupted",
    }


# ------------------------------------------------------------ CLI exit codes

class TestCliExitCodes:
    """0 = certified/ok, 1 = refuted/violated, 2 = usage error — the
    contract shared by check, sweep, report and verify."""

    def test_certified_build_exits_zero(self, capsys):
        assert main(["verify", "--topology", "f2tree", "--ports", "6",
                     "--max-failures", "1"]) == 0
        assert "CERTIFIED" in capsys.readouterr().out

    def test_refuted_mutant_exits_one(self, capsys):
        assert main(["verify", "--mutate", "ring-link-cut",
                     "--max-failures", "1"]) == 1
        assert "REFUTED" in capsys.readouterr().out

    def test_unknown_topology_exits_two(self, capsys):
        assert main(["verify", "--topology", "moebius-tree"]) == 2
        assert "cannot build topology" in capsys.readouterr().err

    def test_unknown_mutant_exits_two(self, capsys):
        assert main(["verify", "--mutate", "no-such-defect"]) == 2
        assert "unknown mutant" in capsys.readouterr().err

    def test_selftest_with_mutate_or_out_exits_two(self, tmp_path, capsys):
        for extra in (["--mutate", "ring-link-cut"], ["--out", str(tmp_path / "r.json")]):
            assert main(["verify", "--selftest", *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"--selftest cannot be combined with {extra[0]}\n"
        assert not (tmp_path / "r.json").exists()

    def test_json_report_and_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--topology", "f2tree", "--ports", "6",
                     "--max-failures", "1", "--json", "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["verdict"] == "CERTIFIED"
        assert json.loads(out.read_text()) == printed

    def test_verify_sweep_is_registered(self):
        from repro.campaign.sweeps import SWEEPS

        assert "verify" in SWEEPS
        specs = SWEEPS["verify"].build(8, 1, None)
        assert specs and all(s.kind == "verify" for s in specs)
