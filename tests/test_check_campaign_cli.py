"""The check trial kind on the campaign runner, and the `repro check` CLI."""

from __future__ import annotations

import json

from repro.campaign.runner import run_campaign
from repro.campaign.spec import TrialSpec
from repro.check.execute import execute_check
from repro.check.mutants import MUTANTS
from repro.check.shrink import shrink_config
from repro.check.bundle import write_bundle
from repro.cli import main


def _specs(n):
    return [TrialSpec.make("check", seed=None, index=i) for i in range(n)]


class TestCheckTrialKind:
    def test_payload_carries_the_full_config(self):
        report = run_campaign(_specs(1), name="check", campaign_seed=3)
        report.require_success()
        payload = report.records[0].payload
        assert payload["n_violations"] == 0
        assert payload["invariants"] == []
        assert set(payload["config"]) == {
            "topology", "ports", "across_ports", "profile", "scenario",
            "seed", "overrides", "events", "warmup",
        }
        assert payload["config"]["seed"] == report.records[0].spec.seed

    def test_parallel_run_is_byte_identical_to_serial(self):
        serial = run_campaign(_specs(4), name="check", campaign_seed=5)
        parallel = run_campaign(
            _specs(4), name="check", workers=2, campaign_seed=5
        )
        assert serial.to_json() == parallel.to_json()


class TestCheckCli:
    def test_clean_fuzz_run_exits_zero(self, capsys):
        code = main(["check", "--trials", "2", "--seed", "9", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["total"] == 2
        assert report["summary"]["ok"] == 2

    def test_replay_subcommand_roundtrips_a_bundle(self, tmp_path, capsys):
        mutant = MUTANTS["backup-tiebreak-none"]
        config = mutant.config_factory()
        shrunk, outcome = shrink_config(config, mutant=mutant)
        path = write_bundle(
            tmp_path / "bundle.json", shrunk, outcome, mutant=mutant
        )
        code = main(["check", "--replay", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "reproduced" in out

    def test_replay_of_garbage_path_exits_two(self, tmp_path, capsys):
        code = main(["check", "--replay", str(tmp_path / "missing.json")])
        assert code == 2
        # well-formed JSON of the wrong shape is a usage error too, with
        # a one-line diagnosis rather than a traceback
        for name, text in (
            ("list.json", "[]"),
            ("config.json", '{"version": 1, "config": [], "violations": []}'),
        ):
            path = tmp_path / name
            path.write_text(text)
            capsys.readouterr()
            assert main(["check", "--replay", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"cannot replay {path}") and err.count("\n") == 1
        # an edited bundle is refused, not replayed: the first check
        # mutant's (frr-window) bundle doctored to record no violation and
        # no mutant, the same bundle with one trace event cut, a wrong
        # digest, and the doctored bundle with its digest stripped
        mutant = MUTANTS["backup-routes-disabled"]
        config = mutant.config_factory()
        outcome = execute_check(config, mutant=mutant)
        sealed = json.loads(
            write_bundle(tmp_path / "sealed.json", config, outcome, mutant=mutant)
            .read_text()
        )
        doctored = dict(sealed, violations=[], mutant=None)
        cut = dict(sealed, trace=sealed["trace"][1:])
        wrong = dict(sealed, sha256="0" * 64)
        unsealed = {k: v for k, v in doctored.items() if k != "sha256"}
        for name, data in (
            ("doctored.json", doctored), ("cut.json", cut),
            ("wrong.json", wrong), ("unsealed.json", unsealed),
        ):
            path = tmp_path / name
            path.write_text(json.dumps(data))
            capsys.readouterr()
            assert main(["check", "--replay", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"cannot replay {path}") and err.count("\n") == 1

    def test_zero_trials_is_an_error(self, capsys):
        assert main(["check", "--trials", "0"]) == 2

    def test_selftest_with_another_mode_exits_two(self, tmp_path, capsys):
        for extra in (["--replay", str(tmp_path / "b.json")], ["--differential", "1"]):
            assert main(["check", "--selftest", *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"--selftest cannot be combined with {extra[0]}\n"
