"""Tests for the five determinism rules of ``repro lint`` (wall-clock,
perf-counter, module-random, set-iteration, span-id): the repo tree
must be clean under them, and each rule must actually fire on a
violation."""

from __future__ import annotations

import pathlib

import pytest

from repro.lint.rules import DETERMINISM_RULE_IDS, rules_by_id
from repro.cli import main
from repro.lint.engine import lint_paths, lint_source

REPO = pathlib.Path(__file__).resolve().parent.parent
DETERMINISM = rules_by_id(DETERMINISM_RULE_IDS)


def rules(source: str, path: str = "src/repro/example.py"):
    return [f.rule for f in lint_source(source, path, rules=DETERMINISM)]


class TestRules:
    def test_wall_clock_calls_flagged(self):
        src = (
            "import time\nfrom datetime import datetime\n"
            "a = time.time()\n"
            "b = time.time_ns()\n"
            "c = datetime.now()\n"
            "d = datetime.utcnow()\n"
        )
        assert rules(src) == ["wall-clock"] * 4

    def test_simulated_clock_is_fine(self):
        assert rules("now = sim.now\nt = time.monotonic()\n") == []

    def test_perf_counter_flagged_outside_bench(self):
        src = (
            "import time\n"
            "a = time.perf_counter()\n"
            "b = time.perf_counter_ns()\n"
        )
        assert rules(src) == ["perf-counter"] * 2

    def test_perf_counter_allowed_in_bench_harness(self):
        src = "import time\nt0 = time.perf_counter()\n"
        assert rules(src, "src/repro/bench.py") == []
        assert rules(src, "benchmarks/test_bench_hotpath.py") == []
        assert rules(src, "src/repro/sim/engine.py") == ["perf-counter"]

    def test_module_random_flagged(self):
        src = "import random\nx = random.random()\ny = random.choice(xs)\n"
        assert rules(src) == ["module-random"] * 2

    def test_seeded_rng_construction_allowed(self):
        src = "import random\nrng = random.Random(seed)\nv = rng.random()\n"
        assert rules(src) == []

    def test_randomness_module_is_allowlisted(self):
        src = "import random\nx = random.getrandbits(64)\n"
        assert rules(src, "src/repro/sim/randomness.py") == []
        assert rules(src, "src/repro/core/other.py") == ["module-random"]

    def test_identity_calls_flagged_in_span_modules(self):
        src = "a = id(span)\nb = hash(node)\n"
        assert rules(src, "src/repro/obs/spans.py") == ["span-id"] * 2
        assert rules(src, "src/repro/obs/export.py") == ["span-id"] * 2

    def test_identity_calls_allowed_elsewhere(self):
        src = "a = id(span)\nb = hash(node)\n"
        assert rules(src, "src/repro/sim/engine.py") == []

    def test_sequence_counters_pass_the_span_rule(self):
        src = (
            "next_id = 1\n"
            "for span in spans:\n"
            "    span_id = next_id\n"
            "    next_id += 1\n"
        )
        assert rules(src, "src/repro/obs/spans.py") == []

    def test_set_iteration_flagged(self):
        src = (
            "for x in {1, 2, 3}:\n    pass\n"
            "ys = [y for y in set(items)]\n"
            "zs = {z for z in frozenset(items)}\n"
        )
        assert rules(src) == ["set-iteration"] * 3

    def test_sorted_set_iteration_is_fine(self):
        src = (
            "for x in sorted({1, 2, 3}):\n    pass\n"
            "names = set(items)\n"
            "for n in ordered:\n    pass\n"
        )
        assert rules(src) == []

    def test_finding_carries_location(self):
        (finding,) = lint_source(
            "import time\nt = time.time()\n", "mod.py", rules=DETERMINISM
        )
        assert finding.path == "mod.py" and finding.line == 2
        assert "wall clock" in str(finding)


class TestTree:
    def test_repo_source_tree_is_clean(self):
        findings = lint_paths([REPO / "src" / "repro"], rules=DETERMINISM)
        assert findings == [], "\n".join(map(str, findings))


class TestMain:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", str(REPO / "src" / "repro")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main(["lint", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "wall-clock" in captured.out
        assert "lint finding(s)" in captured.err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unparseable_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def (:\n")
        assert main(["lint", str(bad)]) == 2
        assert "cannot parse" in capsys.readouterr().err


@pytest.mark.parametrize("loop_head", ["for x in", "async def f():\n    async for x in"])
def test_async_for_also_checked(loop_head):
    if "async" in loop_head:
        src = f"{loop_head} {{1, 2}}:\n        pass\n"
    else:
        src = f"{loop_head} {{1, 2}}:\n    pass\n"
    assert rules(src) == ["set-iteration"]
