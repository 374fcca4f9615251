"""Tests for the parallel experiment campaign runner.

Covers the determinism contract (serial == parallel, byte for byte), the
robustness paths (raising trials, timeouts, the one-retry-on-crash
policy), the declarative spec/grid layer, and the ``repro sweep`` CLI.

The cheap trial kinds registered here exist only for these tests; worker
processes inherit them through fork, so they run under the pool exactly
like the built-in kinds.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.campaign.report import CampaignReport, TrialRecord
from repro.campaign.runner import execute_trial, run_campaign
from repro.campaign.spec import (
    CampaignError,
    TrialSpec,
    grid,
    register_trial,
    registered_kinds,
    resolve_seeds,
)
from repro.campaign.sweeps import (
    congestion_specs,
    detection_delay_specs,
    effective_workers,
    figure_four_specs,
    spf_timer_specs,
)
from repro.sim.randomness import derive_seed
from repro.sim.units import milliseconds


# --------------------------------------------------------------- test kinds


@register_trial("t-draw")
def _trial_draw(ctx, scale=1000):
    """Deterministic pseudo-random payload: exercises per-trial seeding."""
    rng = ctx.streams.stream("draw")
    return {"value": round(rng.random() * scale, 9), "seed": ctx.seed}


@register_trial("t-boom")
def _trial_boom(ctx, message="boom"):
    raise RuntimeError(message)


@register_trial("t-sleep")
def _trial_sleep(ctx, duration=5.0):
    time.sleep(duration)
    return {"slept": duration}


@register_trial("t-flaky")
def _trial_flaky(ctx, marker=""):
    """Fails on the first attempt, succeeds on the retry (marker file)."""
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempted")
        raise RuntimeError("first attempt always fails")
    return {"recovered": True}


@register_trial("t-die")
def _trial_die(ctx, delay=0.5):
    """Kills its worker process outright (no exception, no outcome).  The
    delay lets the pool's other trials settle before the pool breaks."""
    time.sleep(delay)
    os._exit(3)


# ------------------------------------------------------------------- specs


class TestTrialSpec:
    def test_trial_id_is_order_insensitive(self):
        a = TrialSpec.make("recovery", ports=8, topology="f2tree")
        b = TrialSpec.make("recovery", topology="f2tree", ports=8)
        assert a == b
        assert a.trial_id == b.trial_id

    def test_trial_id_embeds_seed(self):
        assert TrialSpec.make("t-draw", seed=7).trial_id.endswith("#7")
        assert TrialSpec.make("t-draw", seed=None).trial_id.endswith("#auto")

    def test_non_scalar_params_rejected(self):
        with pytest.raises(CampaignError):
            TrialSpec.make("recovery", delays=[1, 2, 3])

    def test_grid_expands_cartesian_product(self):
        specs = grid(
            "t-draw", seeds=(1, 2), topology=("fat-tree", "f2tree"), ports=8
        )
        assert len(specs) == 4
        assert len({s.trial_id for s in specs}) == 4
        assert all(s.param_dict()["ports"] == 8 for s in specs)

    def test_grid_is_deterministic(self):
        assert grid("t-draw", x=(1, 2), y=("a", "b")) == grid(
            "t-draw", y=("a", "b"), x=(1, 2)
        )

    def test_resolve_seeds_pins_auto_seeds(self):
        spec = TrialSpec.make("t-draw", seed=None, scale=10)
        (resolved,) = resolve_seeds([spec], campaign_seed=42)
        assert resolved.seed == derive_seed(42, spec.trial_id)
        # explicit seeds pass through untouched
        explicit = TrialSpec.make("t-draw", seed=5)
        assert resolve_seeds([explicit], campaign_seed=42)[0].seed == 5

    def test_unknown_kind_fails_with_catalog(self):
        spec = TrialSpec.make("no-such-kind")
        outcome = execute_trial(spec)
        assert outcome.status == "failed"
        assert "unknown trial kind" in (outcome.error or "")

    def test_builtin_kinds_registered(self):
        kinds = registered_kinds()
        assert {"recovery", "condition", "congestion"} <= set(kinds)

    def test_duplicate_trials_rejected(self):
        spec = TrialSpec.make("t-draw", seed=1)
        with pytest.raises(CampaignError, match="duplicate"):
            run_campaign([spec, spec])


class TestSweepSpecBuilders:
    def test_spf_timer_pairs_fat_and_f2(self):
        specs = spf_timer_specs(delays=(milliseconds(10), milliseconds(50)))
        assert len(specs) == 4
        assert [s.param_dict()["topology"] for s in specs] == [
            "fat-tree", "f2tree", "fat-tree", "f2tree",
        ]

    def test_detection_specs_override_both_delays(self):
        (spec,) = detection_delay_specs(delays=(milliseconds(7),))
        params = spec.param_dict()
        assert params["net_detection_delay"] == milliseconds(7)
        assert params["net_up_detection_delay"] == milliseconds(7)

    def test_figure_four_c6_c7_f2tree_only(self):
        specs = figure_four_specs()
        by_label: dict = {}
        for s in specs:
            p = s.param_dict()
            by_label.setdefault(p["label"], []).append(p["topology"])
        assert by_label["C1"] == ["fat-tree", "f2tree"]
        assert by_label["C6"] == ["f2tree"]
        assert by_label["C7"] == ["f2tree"]

    def test_congestion_specs_one_per_load(self):
        specs = congestion_specs(flow_counts=(2, 4))
        assert [s.param_dict()["hot_flows"] for s in specs] == [2, 4]

    def test_effective_workers_env_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert effective_workers(None) == 1
        assert effective_workers(4) == 4
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert effective_workers(None) == 3
        assert effective_workers(2) == 2


# ------------------------------------------------------------- determinism


class TestDeterminism:
    def test_serial_and_parallel_reports_byte_identical_cheap(self):
        """Worker count must not leak into the deterministic report."""
        specs = grid("t-draw", seeds=(None, 3, 11), scale=(10, 1000))
        serial = run_campaign(specs, name="draws", workers=1, campaign_seed=9)
        parallel = run_campaign(specs, name="draws", workers=4, campaign_seed=9)
        assert serial.to_json().encode() == parallel.to_json().encode()
        assert len(serial.succeeded) == 6

    def test_serial_and_parallel_simulation_byte_identical(self):
        """The satellite regression: a real simulation campaign run with
        --workers 1 and --workers 4 yields byte-identical JSON."""
        specs = detection_delay_specs(
            delays=(milliseconds(5), milliseconds(20)), ports=6, seed=3
        )
        serial = run_campaign(specs, name="det", workers=1)
        parallel = run_campaign(specs, name="det", workers=4)
        assert serial.to_json().encode() == parallel.to_json().encode()
        payloads = serial.payloads()
        assert all("connectivity_loss_ms" in p for p in payloads.values())

    def test_derived_seeds_differ_per_trial(self):
        specs = grid("t-draw", seeds=(None,), scale=(10, 20, 30))
        report = run_campaign(specs, campaign_seed=1)
        seeds = {r.payload["seed"] for r in report.succeeded}
        assert len(seeds) == 3  # every trial drew a distinct derived seed

    def test_same_campaign_seed_reproduces(self):
        specs = grid("t-draw", seeds=(None,), scale=(10, 20))
        a = run_campaign(specs, campaign_seed=5).to_json()
        b = run_campaign(specs, campaign_seed=5).to_json()
        c = run_campaign(specs, campaign_seed=6).to_json()
        assert a == b
        assert a != c

    def test_timing_section_is_opt_in(self):
        report = run_campaign(grid("t-draw", scale=(10,)), workers=1)
        assert "execution" not in json.loads(report.to_json())
        timed = json.loads(report.to_json(include_timing=True))
        assert timed["execution"]["workers"] == 1


# ---------------------------------------------------------- failure paths


class TestWorkerFailures:
    def test_raising_trial_recorded_not_fatal_serial(self):
        specs = [
            TrialSpec.make("t-draw", seed=1, scale=10),
            TrialSpec.make("t-boom", seed=1, message="kapow"),
            TrialSpec.make("t-draw", seed=2, scale=10),
        ]
        report = run_campaign(specs, workers=1)
        assert len(report.succeeded) == 2
        (failed,) = report.failed
        assert failed.status == "failed"
        assert "kapow" in failed.error
        assert failed.attempts == 2  # retried once, then recorded

    def test_raising_trial_recorded_not_fatal_parallel(self):
        specs = [
            TrialSpec.make("t-boom", seed=1),
            TrialSpec.make("t-draw", seed=1, scale=10),
            TrialSpec.make("t-draw", seed=2, scale=10),
        ]
        report = run_campaign(specs, workers=2)
        assert len(report.succeeded) == 2
        (failed,) = report.failed
        assert "boom" in failed.error
        assert failed.attempts == 2

    def test_timeout_recorded_without_sinking_others_serial(self):
        specs = [
            TrialSpec.make("t-sleep", seed=1, duration=5.0, timeout=0.2),
            TrialSpec.make("t-draw", seed=1, scale=10),
        ]
        report = run_campaign(specs, workers=1)
        assert len(report.succeeded) == 1
        (timed_out,) = report.failed
        assert timed_out.status == "timeout"
        assert timed_out.attempts == 1  # timeouts are not retried
        assert "timeout" in timed_out.error

    def test_timeout_recorded_without_sinking_others_parallel(self):
        specs = [
            TrialSpec.make("t-sleep", seed=1, duration=5.0, timeout=0.2),
            TrialSpec.make("t-draw", seed=1, scale=10),
            TrialSpec.make("t-draw", seed=2, scale=10),
        ]
        report = run_campaign(specs, workers=2)
        assert len(report.succeeded) == 2
        (timed_out,) = report.failed
        assert timed_out.status == "timeout"

    def test_campaign_default_timeout_applies_to_all(self):
        report = run_campaign(
            [TrialSpec.make("t-sleep", seed=1, duration=5.0)],
            workers=1, timeout=0.2,
        )
        assert report.records[0].status == "timeout"

    def test_retry_once_recovers_flaky_trial(self, tmp_path):
        marker = tmp_path / "flaky-serial.marker"
        report = run_campaign(
            [TrialSpec.make("t-flaky", seed=1, marker=str(marker))], workers=1
        )
        (record,) = report.records
        assert record.ok
        assert record.attempts == 2
        assert record.payload == {"recovered": True}

    def test_retry_once_recovers_flaky_trial_parallel(self, tmp_path):
        marker = tmp_path / "flaky-parallel.marker"
        specs = [
            TrialSpec.make("t-flaky", seed=1, marker=str(marker)),
            TrialSpec.make("t-draw", seed=1, scale=10),
        ]
        report = run_campaign(specs, workers=2)
        assert not report.failed
        record = report.record(specs[0].trial_id)
        assert record.attempts == 2
        assert record.payload == {"recovered": True}

    def test_dying_worker_retried_once_without_sinking_others(self):
        others = [TrialSpec.make("t-draw", seed=s, scale=10) for s in (1, 2, 3)]
        dying = TrialSpec.make("t-die", seed=1)
        report = run_campaign([dying, *others], workers=2)
        record = report.record(dying.trial_id)
        assert record.status == "failed"
        assert record.attempts == 2
        assert "BrokenProcessPool" in record.error
        serial = run_campaign(others, workers=1)
        assert len(report.succeeded) == len(others)
        assert {
            r.spec.trial_id: r.payload for r in report.succeeded
        } == {r.spec.trial_id: r.payload for r in serial.succeeded}

    def test_timeout_off_main_thread_fails_instead_of_running_unarmed(self):
        reports = {}

        def campaigns():
            reports["armed"] = run_campaign(
                [TrialSpec.make("t-sleep", seed=1, duration=5.0)],
                workers=1, timeout=0.2,
            )
            for timeout in (None, 0):
                reports[timeout] = run_campaign(
                    [TrialSpec.make("t-draw", seed=1, scale=10)],
                    workers=1, timeout=timeout,
                )

        started = time.monotonic()
        worker = threading.Thread(target=campaigns)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        (record,) = reports["armed"].records
        assert record.status == "failed"
        assert "cannot arm the 0.2s trial timeout" in record.error
        # the trial body never ran: no 5 s sleep per attempt
        assert time.monotonic() - started < 5.0
        # no timeout requested: nothing to arm, the trial runs as before
        assert reports[None].records[0].ok
        assert reports[0].records[0].ok

    def test_retries_zero_disables_retry(self):
        report = run_campaign(
            [TrialSpec.make("t-boom", seed=1)], workers=1, retries=0
        )
        assert report.records[0].attempts == 1
        assert report.records[0].status == "failed"

    def test_require_success_lists_failures(self):
        report = run_campaign(
            [TrialSpec.make("t-boom", seed=1, message="nope")], workers=1
        )
        with pytest.raises(CampaignError, match="nope"):
            report.require_success()

    def test_payload_for_failed_trial_raises(self):
        spec = TrialSpec.make("t-boom", seed=1)
        report = run_campaign([spec], workers=1)
        with pytest.raises(CampaignError):
            report.payload_for(spec)

    def test_failed_trial_keeps_traceback_out_of_json(self):
        spec = TrialSpec.make("t-boom", seed=1)
        report = run_campaign([spec], workers=1)
        assert report.records[0].traceback  # kept on the record...
        assert "Traceback" not in report.to_json()  # ...not in the report


# ------------------------------------------------------------------ report


class TestReport:
    def test_records_sorted_by_trial_id(self):
        records = [
            TrialRecord(spec=TrialSpec.make("t-draw", seed=s), status="ok")
            for s in (3, 1, 2)
        ]
        report = CampaignReport(name="x", records=records)
        ids = [r.spec.trial_id for r in report.records]
        assert ids == sorted(ids)

    def test_render_mentions_errors_and_payloads(self):
        specs = [
            TrialSpec.make("t-draw", seed=1, scale=10),
            TrialSpec.make("t-boom", seed=1, message="exploded"),
        ]
        text = run_campaign(specs, workers=1, name="mix").render()
        assert "exploded" in text
        assert "value=" in text
        assert "1/2 trials ok" in text

    def test_summary_counts(self):
        specs = [
            TrialSpec.make("t-draw", seed=1, scale=10),
            TrialSpec.make("t-boom", seed=1),
            TrialSpec.make("t-sleep", seed=1, duration=5.0, timeout=0.2),
        ]
        summary = run_campaign(specs, workers=1).to_dict()["summary"]
        assert summary == {"total": 3, "ok": 1, "failed": 1, "timeout": 1}


# --------------------------------------------------------------------- CLI


class TestSweepCli:
    def test_sweep_json_parallel_smoke(self, capsys):
        from repro.cli import main

        code = main([
            "sweep", "detection", "--workers", "2", "--ports", "6",
            "--limit", "1", "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["campaign"] == "detection"
        assert data["summary"] == {
            "total": 1, "ok": 1, "failed": 0, "timeout": 0,
        }
        (trial,) = data["trials"]
        assert trial["status"] == "ok"
        assert "connectivity_loss_ms" in trial["payload"]

    def test_sweep_writes_report_file(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "report.json"
        code = main([
            "sweep", "detection", "--workers", "1", "--ports", "6",
            "--limit", "1", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["summary"]["ok"] == 1

    def test_sweep_unknown_name_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "no-such-sweep"])

    def test_sweep_limit_zero_errors(self, capsys):
        from repro.cli import main

        assert main(["sweep", "detection", "--limit", "0"]) == 2
