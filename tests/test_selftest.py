"""The one diagonal harness (:mod:`repro.selftest`) behind every
``--selftest`` flag.

The union of the four oracles' diagonals is pinned row for row, each
match mode's acceptance rule is pinned on synthetic diagonals (so a
runner that ignores the baseline, accepts a superset under ``exact`` or
accepts a failed replay under ``includes`` fails here), and the clean
run of a shared baseline runs once per pass.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.check.differential import flow_diagonals
from repro.check.mutants import diagonals as check_diagonals
from repro.cli import main
from repro.selftest import EXACT, INCLUDES, Diagonal, run

#: (oracle, diagonal, expected id, verdict) of every self-test row, in
#: the order ``lint``, ``check`` and ``verify --selftest`` print them
ROWS = [
    ("lint", "wall-clock", "wall-clock", "ok"),
    ("lint", "perf-counter", "perf-counter", "ok"),
    ("lint", "module-random", "module-random", "ok"),
    ("lint", "set-iteration", "set-iteration", "ok"),
    ("lint", "span-id", "span-id", "ok"),
    ("lint", "unsorted-json", "unsorted-json", "ok"),
    ("lint", "sim-time-eq", "sim-time-eq", "ok"),
    ("lint", "unseeded-rng", "unseeded-rng", "ok"),
    ("lint", "mutable-default", "mutable-default", "ok"),
    ("lint", "executor-lambda", "executor-lambda", "ok"),
    ("lint", "heappush-unsorted", "heappush-unsorted", "ok"),
    ("lint", "flow-dict-iteration", "flow-dict-iteration", "ok"),
    ("lint", "gc-call", "gc-call", "ok"),
    ("lint", "unused-suppression", "unused-suppression", "ok"),
    ("check", "backup-routes-disabled", "frr-window", "ok"),
    ("check", "backup-tiebreak-none", "loop-freedom", "ok"),
    ("check", "channel-leak", "sim-sanity", "ok"),
    ("check", "detection-disabled", "blackhole-bound", "ok"),
    ("check", "fib-tiebreak-inverted", "fib-consistency", "ok"),
    ("check", "lsa-flood-dropped", "convergence-agreement", "ok"),
    ("check", "spf-engine-corrupted", "convergence-agreement", "ok"),
    ("flow", "fairshare-vector-corrupted", "backend-agreement", "ok"),
    ("flow", "flow-fairshare-corrupted", "backend-agreement", "ok"),
    ("verify", "backup-prefix-too-long", "prefix-soundness", "ok"),
    ("verify", "backup-tiebreak-none", "loop-freedom", "ok"),
    ("verify", "cross-pod-across", "wiring", "ok"),
    ("verify", "lpm-inverted", "prefix-soundness", "ok"),
    ("verify", "pod-ring-unwired", "coverage", "ok"),
    ("verify", "ring-link-cut", "wiring", "ok"),
    ("verify", "ring-order-swapped", "prefix-soundness", "ok"),
    ("verify", "statics-withdrawn", "coverage", "ok"),
]

ROW_KEYS = {
    "name", "oracle", "expected", "match", "baseline", "caught", "replayed", "ok",
}


def test_every_selftest_flag_prints_the_pinned_json_rows(capsys):
    rows = []
    for command in ("lint", "check", "verify"):
        assert main([command, "--selftest", "--json"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert out.rstrip("\n") == json.dumps(report, indent=2, sort_keys=True)
        assert report["passed"] == report["total"] == len(report["diagonals"])
        for row in report["diagonals"]:
            assert set(row) == ROW_KEYS
            assert row["baseline"] == []
            rows.append((
                row["oracle"], row["name"], row["expected"],
                "ok" if row["ok"] else "FAIL",
            ))
    assert rows == ROWS


def test_a_shared_baseline_runs_once_per_pass():
    """The two flow mutants share one unmutated differential, and check
    mutants on one config share one clean trial."""
    runs = {}

    def counted(diagonal):
        def clean():
            key = (diagonal.oracle, diagonal.baseline)
            runs[key] = runs.get(key, 0) + 1
            return diagonal.clean()

        return dataclasses.replace(diagonal, clean=clean)

    seeded = check_diagonals() + flow_diagonals()
    results = run(counted(d) for d in seeded)
    assert all(r.ok for r in results)
    keys = {(d.oracle, d.baseline) for d in seeded}
    assert runs == {key: 1 for key in keys}
    assert len(keys) == 6 < len(seeded) == 9


# -------------------------------------------------------- the match rules


def synthetic(match, clean=(), caught=("x",), replayed=None, oracle="check"):
    return Diagonal(
        name="d", oracle=oracle, expected="x", match=match, baseline="k",
        clean=lambda: clean, mutated=lambda: caught,
        replay=None if replayed is None else (lambda: replayed),
    )


@pytest.mark.parametrize("match", [EXACT, INCLUDES])
def test_a_dirty_baseline_fails_the_row(match):
    (result,) = run([synthetic(match, clean=("y",))])
    assert result.baseline == ("y",)
    assert not result.ok


@pytest.mark.parametrize(
    "match, caught, ok",
    [
        (EXACT, ("x",), True),
        (EXACT, ("x", "y"), False),
        (EXACT, (), False),
        (INCLUDES, ("x", "y"), True),
        (INCLUDES, ("y",), False),
    ],
)
def test_the_match_mode_decides_what_counts_as_caught(match, caught, ok):
    (result,) = run([synthetic(match, caught=caught)])
    assert result.ok is ok


@pytest.mark.parametrize("replayed, ok", [(True, True), (False, False)])
def test_a_failed_replay_fails_an_includes_row(replayed, ok):
    (result,) = run([synthetic(INCLUDES, caught=("x", "y"), replayed=replayed)])
    assert result.replayed is replayed
    assert result.ok is ok


@pytest.mark.parametrize(
    "command, module",
    [
        ("lint", "repro.lint.selftest"),
        ("check", "repro.check.mutants"),
        ("verify", "repro.verify.mutants"),
    ],
)
def test_one_failing_diagonal_exits_one(command, module, monkeypatch, capsys):
    monkeypatch.setattr(
        f"{module}.diagonals",
        lambda *args: [synthetic(EXACT, caught=(), oracle=command)],
    )
    monkeypatch.setattr("repro.check.differential.flow_diagonals", lambda: [])
    assert main([command, "--selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and out.endswith("0/1 diagonals caught as declared\n")
