"""Tests for the repro.lint analyzer: per-rule positive/negative cases,
suppression parsing (incl. unused-suppression reporting), deterministic
finding order, the --json schema round-trip, the seeded-violation
diagonal, and the ``repro lint`` CLI exit codes."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main as repro_main
from repro.lint import (
    DETERMINISM_RULE_IDS,
    FIXTURES,
    Finding,
    REGISTRY,
    all_rules,
    lint_paths,
    lint_source,
    parse_suppressions,
    run_selftest,
)
from repro.lint.cli import findings_from_json, report_to_json

REPO = pathlib.Path(__file__).resolve().parent.parent

SRC = "src/repro/example.py"


def rules(source: str, path: str = SRC):
    return [f.rule for f in lint_source(source, path)]


# ------------------------------------------------------------ rule catalog


class TestCatalog:
    def test_at_least_ten_rules_registered(self):
        assert len(REGISTRY) >= 10

    def test_every_rule_has_id_summary_severity(self):
        for rule in all_rules():
            assert rule.id and rule.summary
            assert rule.severity in ("error", "warning")

    def test_catalog_order_is_sorted_by_id(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == sorted(ids)

    def test_migrated_determinism_rules_present(self):
        assert set(DETERMINISM_RULE_IDS) <= set(REGISTRY)


# ------------------------------------------------------------ new rules


class TestUnsortedJson:
    def test_dumps_without_sort_keys_flagged_on_serialization_paths(self):
        src = "import json\nblob = json.dumps(payload)\n"
        assert rules(src, "src/repro/check/bundle.py") == ["unsorted-json"]
        assert rules(src, "src/repro/campaign/report.py") == ["unsorted-json"]

    def test_sort_keys_true_passes(self):
        src = "import json\nblob = json.dumps(payload, sort_keys=True)\n"
        assert rules(src, "src/repro/check/bundle.py") == []

    def test_sort_keys_false_still_flagged(self):
        src = "import json\nblob = json.dumps(payload, sort_keys=False)\n"
        assert rules(src, "src/repro/verify/checks.py") == ["unsorted-json"]

    def test_out_of_scope_paths_unchecked(self):
        src = "import json\nblob = json.dumps(payload)\n"
        assert rules(src, "src/repro/experiments/testbed.py") == []
        assert rules(src, "tests/test_example.py") == []

    def test_json_dump_also_covered(self):
        src = "import json\njson.dump(payload, handle)\n"
        assert rules(src, "src/repro/check/bundle.py") == ["unsorted-json"]


class TestSimTimeEq:
    def test_equality_with_computed_time_flagged(self):
        assert rules("if sim.now == start + timeout:\n    pass\n") == [
            "sim-time-eq"
        ]
        assert rules("done = now != min(a, b)\n") == ["sim-time-eq"]

    def test_stored_timestamp_equality_is_fine(self):
        # the engine's same-timestamp draining idiom: copied values
        assert rules("while queue and queue[0][0] == now:\n    pass\n") == []
        assert rules("if self._pending_at == now:\n    pass\n") == []

    def test_ordered_comparison_is_fine(self):
        assert rules("if sim.now >= start + timeout:\n    pass\n") == []

    def test_tests_are_out_of_scope(self):
        src = "assert sim.now == warmup + delay\n"
        assert rules(src, "tests/test_example.py") == []


class TestUnseededRng:
    def test_constant_seed_flagged(self):
        assert rules("import random\nrng = random.Random(42)\n") == [
            "unseeded-rng"
        ]

    def test_no_argument_flagged(self):
        assert rules("import random\nrng = random.Random()\n") == [
            "unseeded-rng"
        ]

    def test_derive_seed_passes(self):
        src = "rng = random.Random(derive_seed(seed, 'failures'))\n"
        assert rules(src) == []
        dotted = "rng = random.Random(randomness.derive_seed(seed, 'x'))\n"
        assert rules(dotted) == []

    def test_out_of_scope_in_tests(self):
        assert rules("rng = random.Random(7)\n", "tests/test_x.py") == []


class TestMutableDefault:
    def test_display_defaults_flagged(self):
        assert rules("def f(xs=[]):\n    return xs\n") == ["mutable-default"]
        assert rules("def f(m={}):\n    return m\n") == ["mutable-default"]
        assert rules("def f(*, s=set()):\n    return s\n") == [
            "mutable-default"
        ]

    def test_none_default_passes(self):
        assert rules("def f(xs=None):\n    return xs or []\n") == []

    def test_immutable_defaults_pass(self):
        assert rules("def f(n=3, name='x', t=()):\n    return n\n") == []


class TestExecutorLambda:
    def test_lambda_submit_flagged(self):
        assert rules("fut = pool.submit(lambda: work(x))\n") == [
            "executor-lambda"
        ]

    def test_lambda_map_flagged(self):
        assert rules("out = pool.map(lambda s: run(s), specs)\n") == [
            "executor-lambda"
        ]

    def test_function_reference_passes(self):
        assert rules("fut = pool.submit(run_trial, spec)\n") == []


class TestHeappushUnsorted:
    def test_dict_view_feeding_heappush_flagged(self):
        src = (
            "import heapq\n"
            "for k, v in table.items():\n"
            "    heapq.heappush(heap, (v, k))\n"
        )
        assert rules(src) == ["heappush-unsorted"]

    def test_sorted_view_passes(self):
        src = (
            "import heapq\n"
            "for k, v in sorted(table.items()):\n"
            "    heapq.heappush(heap, (v, k))\n"
        )
        assert rules(src) == []

    def test_heappush_outside_view_loop_passes(self):
        src = (
            "import heapq\n"
            "for item in ordered_list:\n"
            "    heapq.heappush(heap, item)\n"
        )
        assert rules(src) == []


# ------------------------------------------------------------ suppressions


class TestSuppressions:
    def test_parse_multiple_ids_per_comment(self):
        entries = parse_suppressions(
            "x = 1  # repro-lint: ignore[wall-clock, span-id]\n"
        )
        assert [(e.line, e.rule_id) for e in entries] == [
            (1, "wall-clock"), (1, "span-id"),
        ]

    def test_suppression_drops_the_finding(self):
        src = (
            "import time\n"
            "t = time.time()  # repro-lint: ignore[wall-clock]\n"
        )
        assert rules(src) == []

    def test_suppression_is_rule_specific(self):
        src = (
            "import time\n"
            "t = time.time()  # repro-lint: ignore[perf-counter]\n"
        )
        assert sorted(rules(src)) == ["unused-suppression", "wall-clock"]

    def test_unused_suppression_reported(self):
        src = "x = 1  # repro-lint: ignore[wall-clock]\n"
        assert rules(src) == ["unused-suppression"]

    def test_unknown_rule_id_reported(self):
        (finding,) = lint_source(
            "x = 1  # repro-lint: ignore[wibble]\n", SRC
        )
        assert finding.rule == "unused-suppression"
        assert "unknown rule id" in finding.message

    def test_docstring_text_is_not_a_suppression(self):
        src = '"""mentions # repro-lint: ignore[wall-clock] in prose"""\n'
        assert rules(src) == []

    def test_half_stale_comment_reports_the_dead_half(self):
        src = (
            "import time\n"
            "t = time.time()  # repro-lint: ignore[wall-clock, span-id]\n"
        )
        assert rules(src) == ["unused-suppression"]


# ------------------------------------------------------------ determinism


class TestDeterministicOutput:
    def test_findings_sorted_by_path_line_rule(self):
        src = (
            "import time, random\n"
            "b = random.random()\n"
            "a = time.time()\n"
        )
        findings = lint_source(src, SRC)
        assert [f.line for f in findings] == sorted(f.line for f in findings)
        assert findings == sorted(findings)

    def test_tree_scan_is_stable_across_runs(self, tmp_path):
        for name, body in (
            ("b.py", "import time\nt = time.time()\n"),
            ("a.py", "import random\nr = random.random()\n"),
        ):
            (tmp_path / name).write_text(body)
        first = lint_paths([tmp_path])
        second = lint_paths([tmp_path])
        assert first == second
        assert [f.path for f in first] == sorted(f.path for f in first)


# ------------------------------------------------------------ json schema


class TestJsonRoundTrip:
    def test_report_round_trips(self):
        findings = lint_source(
            "import time\nt = time.time()\nr = random.random()\n", SRC
        )
        text = report_to_json(findings, files=1)
        assert findings_from_json(text) == sorted(findings)

    def test_payload_shape(self):
        payload = json.loads(report_to_json([], files=0))
        assert payload["version"] == 1
        assert payload["findings"] == []
        assert payload["counts"] == {}

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            findings_from_json('{"version": 99, "findings": []}')

    def test_finding_dict_round_trip(self):
        finding = Finding("a.py", 3, "wall-clock", "msg")
        assert Finding.from_dict(finding.to_dict()) == finding


# ------------------------------------------------------------ selftest


class TestSelftestDiagonal:
    def test_every_rule_has_exactly_one_fixture(self):
        assert sorted(f.rule for f in FIXTURES) == sorted(REGISTRY)

    def test_diagonal_catches_exactly(self):
        for result in run_selftest():
            assert result.ok, (
                f"{result.name}: caught {result.caught}, "
                f"clean twin fired {result.baseline}"
            )


# ------------------------------------------------------------ repo gate


class TestRepoTree:
    def test_whole_scan_set_is_clean(self):
        targets = [
            REPO / name for name in ("src", "tests", "benchmarks")
        ]
        findings = lint_paths([t for t in targets if t.is_dir()])
        assert findings == [], "\n".join(map(str, findings))


# ------------------------------------------------------------ CLI


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert repro_main(["lint", str(good)]) == 0
        assert "lint clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert repro_main(["lint", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "wall-clock" in captured.out
        assert "finding" in captured.err

    def test_json_mode(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert repro_main(["lint", "--json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"wall-clock": 1}

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert repro_main(["lint", str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unparseable_file_exits_two(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def (:\n")
        assert repro_main(["lint", str(broken)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_selftest_exits_zero(self, capsys):
        assert repro_main(["lint", "--selftest"]) == 0
        out = capsys.readouterr().out
        assert "diagonal" in out and "FAIL" not in out

    def test_list_prints_catalog(self, capsys):
        assert repro_main(["lint", "--list"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out

    def test_standalone_main_matches_subcommand(self, tmp_path, capsys):
        """``repro lint`` is the one entry point; its text and --json
        modes report the same findings."""
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert repro_main(["lint", str(bad)]) == 1
        text = capsys.readouterr().out.splitlines()
        assert repro_main(["lint", "--json", str(bad)]) == 1
        findings = findings_from_json(capsys.readouterr().out)
        assert text == [str(f) for f in findings] and findings
