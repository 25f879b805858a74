"""The paired-run summary and verdict of tools/bench_pairs.py, on synthetic
run records; nothing here starts a benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = bench_pairs.end_to_end_metrics(json.loads((ROOT / "BENCHMARK.json").read_text()))


def _run(side, workload, seed, p50, correct=True, **values):
    metrics = {name: {"value": values.get(name, 1.0), "unit": ""} for name in METRICS}
    metrics["latency_ms.p50"]["value"] = p50
    return {"side": side, "workload": workload, "seed": seed,
            "result": {"correct": correct, "attempted": 1, "failed": int(not correct),
                       "metrics": metrics}}


def _pairs(parent, change, workload="synth-solve", first_seed=100):
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        first, second = (("parent", p), ("change", c)) if i % 2 == 0 else (("change", c), ("parent", p))
        runs += [_run(side, workload, first_seed + i, value) for side, value in (first, second)]
    return runs


class TestVerdict:
    def test_ten_clear_wins_hold(self):
        parent = [12.0, 11.5, 12.2, 11.9, 12.1, 11.8, 12.3, 11.7, 12.0, 11.6]
        change = [p - 1.5 for p in parent]
        rule = bench_pairs.verdict(parent, change, "lower")
        assert rule["wins"] == 10 and rule["pairs"] == 10
        assert rule["gap"] == pytest.approx(1.5)
        assert rule["parent_iqr"] == pytest.approx(0.45)  # quartiles 11.675 and 12.125
        assert rule["gain"]

    def test_nine_of_ten_is_enough_but_eight_is_not(self):
        parent = [10.0] * 10
        change = [9.0] * 9 + [11.0]
        assert bench_pairs.verdict(parent, change, "lower")["gain"]
        change = [9.0] * 8 + [10.0, 11.0]  # a tie counts for neither side
        rule = bench_pairs.verdict(parent, change, "lower")
        assert rule["wins"] == 8 and not rule["gain"]

    def test_gap_must_exceed_the_parent_iqr(self):
        parent = [10.0, 12.0] * 5  # quartiles 10 and 12
        change = [p - 1.5 for p in parent]
        rule = bench_pairs.verdict(parent, change, "lower")
        assert rule["wins"] == 10 and rule["parent_iqr"] == 2.0 and not rule["gain"]

    def test_higher_is_better(self):
        parent = [100.0 + i for i in range(10)]
        rule = bench_pairs.verdict(parent, [p + 20 for p in parent], "higher")
        assert rule["wins"] == 10 and rule["gap"] == 20 and rule["gain"]
        assert bench_pairs.verdict(parent, [p - 20 for p in parent], "higher")["wins"] == 0

    def test_fewer_than_ten_pairs_support_no_gain(self):
        rule = bench_pairs.verdict([10.0] * 9, [5.0] * 9, "lower")
        assert rule["wins"] == 9 and rule["parent_iqr"] == 0.0 and not rule["gain"]


class TestSummary:
    def test_pairs_are_matched_by_seed_in_seed_order(self):
        parent = [12.0, 11.0, 13.0]
        change = [10.0, 11.5, 9.0]
        runs = _pairs(parent, change)
        runs += _pairs([5.0], [5.0], workload="paper-grid", first_seed=200)
        runs.append(_run("parent", "many-parts", 300, 400.0))  # its change run is missing
        summary = bench_pairs.summarize(runs, METRICS)
        assert set(summary) == {"synth-solve", "paper-grid"}
        p50 = summary["synth-solve"]["latency_ms.p50"]
        assert p50["parent"] == parent and p50["change"] == change
        assert p50["parent_median"] == 12.0 and p50["change_median"] == 10.0
        assert p50["change_wins"] == 2
        assert summary["synth-solve"]["pairs"] == 3
        assert summary["synth-solve"]["p50_change_faster_pairs"] == 2
        assert summary["synth-solve"]["all_checks_passed"]
        assert summary["paper-grid"]["latency_ms.p50"]["change_wins"] == 0

    def test_every_end_to_end_metric_is_summarized(self):
        runs = [_run("parent", "synth-solve", 1, 10.0, success_rate=0.9),
                _run("change", "synth-solve", 1, 9.0, correct=False, success_rate=0.95)]
        entry = bench_pairs.summarize(runs, METRICS)["synth-solve"]
        assert set(METRICS) <= set(entry)
        assert entry["success_rate"]["change_wins"] == 1
        assert not entry["all_checks_passed"]

    def test_report_names_a_metric_past_its_bound(self):
        runs = _pairs([10.0] * 10, [8.0] * 10)
        runs[0]["result"]["metrics"]["peak_rss_mb"]["value"] = 1.0
        for run in runs:
            if run["side"] == "change":
                run["result"]["metrics"]["peak_rss_mb"]["value"] = 2.0
        lines = bench_pairs.report(bench_pairs.summarize(runs, METRICS), METRICS)
        assert lines[0].startswith("verdict rule:")
        p50 = next(line for line in lines if "latency_ms.p50" in line)
        rss = next(line for line in lines if "peak_rss_mb" in line)
        assert "wins 10/10" in p50 and p50.endswith("gain holds")
        assert "worse by 100.0%, past its bound 0.1" in rss

    def test_plan_alternates_the_side_that_runs_first(self):
        pairs = bench_pairs.plan([("synth-solve", 3), ("many-parts", 1)], 171)
        assert pairs == [
            ("synth-solve", 171, ("parent", "change")),
            ("synth-solve", 172, ("change", "parent")),
            ("synth-solve", 173, ("parent", "change")),
            ("many-parts", 174, ("change", "parent")),
        ]
        order = bench_pairs.describe_order(pairs)
        assert "synth-solve seeds 171-173: 3 pairs, parent first at 171, 173" in order
        assert "many-parts seed 174: 1 pair, parent first at none" in order
