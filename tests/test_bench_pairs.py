"""The pair runner's summary on synthetic run records; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
END_TO_END = [
    {"name": "exact_checks_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pass_ratio", "unit": "fraction", "better": "higher", "bound": 0.01},
]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(rate, solve, ratio=1.0):
    return {"correct": ratio == 1.0, "attempted": 10, "failed": 0 if ratio == 1.0 else 1,
            "metrics": {"exact_checks_per_s": {"value": rate, "unit": "1/s"},
                        "solve_s": {"value": solve, "unit": "s"},
                        "pass_ratio": {"value": ratio, "unit": "fraction"}}}


def _runs(parent, change):
    return [{"seed": 7 + i, "first": "parent" if i % 2 == 0 else "change",
             "parent": _result(*p), "change": _result(*c)}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_summary_medians_iqr_wins_and_verdicts(pairs):
    parent = [(100.0, 1.0), (110.0, 1.1), (90.0, 0.9), (105.0, 1.0), (95.0, 1.2)]
    change = [(150.0, 1.5), (160.0, 1.0), (140.0, 1.4), (155.0, 1.3), (145.0, 1.35)]
    s = pairs.summarise(_runs(parent, change), END_TO_END)
    rate, solve, ratio = s["exact_checks_per_s"], s["solve_s"], s["pass_ratio"]
    assert (rate["parent_median"], rate["change_median"]) == (100.0, 150.0)
    assert rate["change_pct"] == pytest.approx(50.0)
    # statistics.quantiles(n=4) of 90, 95, 100, 105, 110: 92.5 and 107.5
    assert rate["parent_iqr"] == pytest.approx(15.0)
    assert (rate["wins"], rate["pairs"], rate["verdict"]) == (5, 5, "gain")
    assert rate["parent"] == [p for p, _ in parent] and rate["change"] == [c for c, _ in change]
    # solve_s is lower-better: the change wins one pair and its median is 35 % worse
    assert (solve["wins"], solve["verdict"]) == (1, "worse")
    assert solve["change_pct"] == pytest.approx(35.0)
    assert (ratio["wins"], ratio["verdict"], ratio["parent_iqr"]) == (0, "flat", 0.0)


def test_a_gain_needs_nine_pairs_in_ten_and_more_than_the_parent_iqr(pairs):
    parent = [(100.0, 1.0)] * 10
    eight = pairs.summarise(_runs(parent, [(120.0, 1.0)] * 8 + [(90.0, 1.0)] * 2), END_TO_END)
    assert eight["exact_checks_per_s"]["wins"] == 8
    assert eight["exact_checks_per_s"]["verdict"] == "flat"
    nine = pairs.summarise(_runs(parent, [(120.0, 1.0)] * 9 + [(90.0, 1.0)]), END_TO_END)
    assert nine["exact_checks_per_s"]["verdict"] == "gain"
    noisy = [(60.0, 1.0), (140.0, 1.0)] * 5  # median 100, IQR 80
    small = pairs.summarise(_runs(noisy, [(p + 30.0, 1.0) for p, _ in noisy]), END_TO_END)
    assert small["exact_checks_per_s"]["wins"] == 10
    assert small["exact_checks_per_s"]["verdict"] == "flat"


def test_run_checks_and_table(pairs):
    runs = _runs([(100.0, 1.0), (100.0, 1.0)], [(120.0, 0.8), (130.0, 0.7, 0.5)])
    checks = pairs.run_checks(runs)
    assert checks[1] == {"seed": 8, "first": "change",
                         "parent": {"correct": True, "pass_ratio": 1.0},
                         "change": {"correct": False, "pass_ratio": 0.5}}
    text = pairs.table({"discrete-exact": {"metrics": pairs.summarise(runs, END_TO_END)}})
    lines = text.splitlines()
    assert len(lines) == 2 + len(END_TO_END)
    assert lines[2].startswith("| `discrete-exact` | `exact_checks_per_s` | 100 | 125 | +25.0 %")
    assert lines[4].endswith("| 0/2 | worse |")
