"""The absolute floors ``repro bench`` gates on, on synthetic results.

The bench itself times real trials (seconds to a minute); these tests
pin only the gate: which result dicts pass, which fail and how each
failure is named, and that the CLI turns a failure into exit 1.
"""

from __future__ import annotations

import copy

import pytest

from repro import bench
from repro.bench import (
    FAIRSHARE_MIN_RATIO,
    FLOW_MIN_RATIO,
    FLOW_SCALE_BUDGET_S,
    check_floors,
    render,
)
from repro.cli import main


def passing_result():
    return {
        "quick": True,
        "cpu_count": 2,
        "fairshare_vector": {
            "flows": 10_000, "ratio": 9.0,
            "optimized_fps": 110_000, "naive_fps": 12_000,
        },
        "flow_backend": {
            "ports": 12,
            "packet_s": 8.2,
            "flow_s": 0.3,
            "ratio": 27.3,
            "packet": {"class": "convergence", "loss_ms": 270.134},
            "flow": {"class": "convergence", "loss_ms": 270.134},
            "scale_trial": {
                "ports": 48,
                "wall_s": 25.3,
                "peak_rss_mb": 1014.0,
                "budget_s": FLOW_SCALE_BUDGET_S,
                "within_budget": True,
            },
        },
    }


def test_passing_result_has_no_failures():
    assert check_floors(passing_result()) == []


def test_slow_fair_share_is_named():
    result = passing_result()
    result["fairshare_vector"]["ratio"] = FAIRSHARE_MIN_RATIO - 0.1
    (failure,) = check_floors(result)
    assert failure.startswith("fairshare_vector:")
    assert "10,000 flows" in failure


def test_low_measured_flow_ratio_is_named():
    result = passing_result()
    result["flow_backend"]["ratio"] = FLOW_MIN_RATIO - 0.5
    (failure,) = check_floors(result)
    assert failure.startswith("flow_backend:")
    assert "measured packet/fluid ratio" in failure and "k=12" in failure


def test_over_budget_scale_trial_is_named():
    result = passing_result()
    scale = result["flow_backend"]["scale_trial"]
    scale["wall_s"], scale["within_budget"] = 130.0, False
    (failure,) = check_floors(result)
    assert failure.startswith("flow_backend:")
    assert "k=48" in failure and "budget" in failure


@pytest.mark.parametrize("section", ["fairshare_vector", "flow_backend"])
def test_missing_section_is_named(section):
    result = passing_result()
    del result[section]
    (failure,) = check_floors(result)
    assert failure == f"{section}: section missing from the result"


def test_every_floor_failing_names_all_three():
    result = passing_result()
    result["fairshare_vector"]["ratio"] = 1.0
    result["flow_backend"]["ratio"] = 1.0
    result["flow_backend"]["scale_trial"]["within_budget"] = False
    assert len(check_floors(result)) == 3


def test_render_reports_the_measured_ratio_and_the_budget():
    text = render(passing_result())
    assert "packet 8.20s, fluid 0.30s -> 27.3x" in text
    assert "fluid k=48: 25.3s wall, 1014 MiB peak RSS" in text


@pytest.mark.parametrize(
    "mutate, code",
    [
        (lambda r: None, 0),
        (lambda r: r["flow_backend"].update(ratio=2.0), 1),
        (lambda r: r.pop("fairshare_vector"), 1),
    ],
    ids=["pass", "flow-ratio-below-floor", "missing-section"],
)
def test_cmd_bench_exit_code_follows_the_floors(
    monkeypatch, capsys, mutate, code
):
    result = passing_result()
    mutate(result)
    monkeypatch.setattr(
        bench, "run_hotpath_bench",
        lambda quick=False, campaign=True: copy.deepcopy(result),
    )
    assert main(["bench", "--quick", "--json"]) == code
    err = capsys.readouterr().err
    assert ("BELOW FLOOR" in err) == bool(code)
