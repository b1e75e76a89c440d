"""Benchmark aggregation: censoring, medians, report rendering."""

import json

import pytest

from scatterfuzz import ConfigError
from scatterfuzz.bench import (TrialOutcome, TrialReport, _cmedian,
                               config_from_switches, report, run_bench,
                               run_trial)
from scatterfuzz.cli import main


def make_report(vals, budget=1000):
    rep = TrialReport(scenario="s", category="scattered",
                      config_digest="cfg", budget=budget)
    for i, v in enumerate(vals):
        rep.trials.append(TrialOutcome(seed=i + 1, solves={"cmp_x": v},
                                       unique_blocks=10 + i, crashes=0,
                                       executions=budget))
    return rep


def test_censored_median_convention():
    assert _cmedian([1, 2, 3]) == 2
    assert _cmedian([1, None, 3]) == 3
    assert _cmedian([None, None, 1]) is None
    assert _cmedian([1, 2, 3, 4]) == 2.5
    assert _cmedian([1, 2, None, None]) is None


def test_aggregates_render_censoring():
    rep = make_report([50, None, 70, None, 60])
    agg = rep.aggregates()["cmp_x"]
    assert agg["min"] == 50
    assert agg["median"] == 70
    assert agg["max"] == ">1000"
    assert agg["solved_trials"] == 3 and agg["total_trials"] == 5


def test_fully_censored():
    rep = make_report([None, None])
    agg = rep.aggregates()["cmp_x"]
    assert agg["min"] == ">1000"
    assert agg["median"] == ">1000"
    assert agg["solved_trials"] == 0


def test_single_trial_min_equals_max():
    rep = make_report([42])
    agg = rep.aggregates()["cmp_x"]
    assert agg["min"] == agg["median"] == agg["max"] == 42


def test_empty_scenario_set_empty_report():
    assert run_bench([], 1, [{"solver": True}]) == []


def test_report_text_and_json_mirror():
    reps = [make_report([10, None, 30]),
            make_report([5, 6, 7])]
    reps[1].config_digest = "cfg2"
    text, machine = report(reps)
    assert ">1000" in text
    assert "mwu" in text
    table = machine["reports"][0]
    assert table["aggregates"]["cmp_x"]["median"] == 30
    assert table["per_string"]["cmp_x"] == [10, ">1000", 30]
    json.dumps(machine)  # must be serializable


def test_mwu_comparison_wiring():
    a = make_report([1, 2, 3])
    b = make_report([1, 2, 3])
    b.config_digest = "cfg2"
    _, machine = report([a, b])
    (mwu,) = [r for r in machine["reports"] if r.get("kind") == "mwu"]
    assert (mwu["a"], mwu["b"]) == ("cfg", "cfg2")
    assert mwu["degenerate"] is False
    assert mwu["p"] == 1.0  # identical block series


@pytest.mark.parametrize("switches", [
    {"solvr": False},                 # misspelt key
    {"execs": "500"},                 # number as a string
    {"execs": True},
    {"color": 0},
    ["solver"],                       # entry is not an object
    7,
])
def test_malformed_matrix_entry_rejected(switches):
    with pytest.raises(ConfigError):
        config_from_switches(switches, seed=1)
    with pytest.raises(ConfigError):
        run_bench([], 1, [{"solver": True}, switches])


@pytest.mark.parametrize("matrix", [{"solver": True}, 5, "solver"])
def test_matrix_must_be_a_list(matrix):
    with pytest.raises(ConfigError):
        run_bench([], 1, matrix)


@pytest.mark.parametrize("trials", [0, -3])
def test_trial_count_must_be_positive(trials):
    with pytest.raises(ConfigError):
        run_bench([], trials, [{"solver": True}])
    with pytest.raises(ConfigError):
        main(["bench", "--trials", str(trials)])


def test_run_trial_and_bench_end_to_end(corpus):
    scenario = corpus["contract_ok"]
    outcome = run_trial(scenario, {"solver": True, "execs": 2000}, seed=1)
    assert outcome.solves["cmp_ok"] is not None
    reports = run_bench([scenario], trials=2,
                        config_matrix=[{"solver": True, "execs": 2000},
                                       {"solver": False, "execs": 2000}])
    assert len(reports) == 2
    on, off = reports
    assert all(v is not None for v in on.per_string()["cmp_ok"])
    text, machine = report(reports)
    assert "contract_ok" in text
