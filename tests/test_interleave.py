"""The summary, side order and package loading of tools/interleave.py; nothing
here exports a revision, runs a benchmark instance or starts a subprocess."""

import importlib.util
import sys
from pathlib import Path

import pytest

import qcpart as q

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("interleave", ROOT / "tools" / "interleave.py")
interleave = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(interleave)


def test_summary_takes_quartiles_of_the_per_run_ratios():
    times = {"parent": [0.010, 0.020, 0.040, 0.010, 0.030],
             "change": [0.009, 0.016, 0.040, 0.006, 0.027]}
    summary = interleave.summarize(times)
    # ratios 0.9, 0.8, 1.0, 0.6, 0.9; exclusive quartiles of five values
    assert summary["runs"] == 5
    assert summary["ratio_median"] == pytest.approx(0.9)
    assert summary["ratio_q1"] == pytest.approx(0.7)
    assert summary["ratio_q3"] == pytest.approx(0.95)
    assert summary["parent_median_ms"] == pytest.approx(20.0)
    assert summary["change_median_ms"] == pytest.approx(16.0)


def test_summary_of_one_run():
    summary = interleave.summarize({"parent": [0.004], "change": [0.005]})
    assert summary["ratio_q1"] == summary["ratio_median"] == summary["ratio_q3"] == 1.25


def test_report_names_the_ratio_and_both_medians():
    summary = interleave.summarize({"parent": [0.010, 0.010], "change": [0.009, 0.009]})
    assert interleave.report("synth-solve", summary) == (
        "synth-solve: 2 runs per side, time ratio change/parent median 0.900 "
        "(quartiles 0.900-0.900); median instance parent 10.000 ms, change 9.000 ms")


def test_runs_split_by_the_parents_outcome():
    times = {"parent": [0.010, 0.020, 0.040, 0.010], "change": [0.010, 0.010, 0.040, 0.005]}
    split = interleave.by_outcome(times, [False, True, False, True])
    assert split == {"solved": {"parent": [0.010, 0.040], "change": [0.010, 0.040]},
                     "SolverError": {"parent": [0.020, 0.010], "change": [0.010, 0.005]}}
    assert interleave.summarize(split["solved"])["ratio_median"] == 1.0
    assert interleave.summarize(split["SolverError"])["ratio_median"] == 0.5
    assert interleave.report("paper-grid SolverError", interleave.summarize(
        split["SolverError"])).startswith("paper-grid SolverError: 2 runs per side, "
                                          "time ratio change/parent median 0.500")


def test_an_outcome_without_runs_is_left_out():
    times = {"parent": [0.010, 0.020], "change": [0.009, 0.018]}
    assert list(interleave.by_outcome(times, [False, False])) == ["solved"]
    assert list(interleave.by_outcome(times, [True, True])) == ["SolverError"]


def test_the_side_that_runs_first_alternates():
    assert [interleave.order(i, 0)[0] for i in range(4)] == ["parent", "change"] * 2
    assert [interleave.order(i, 1)[0] for i in range(4)] == ["change", "parent"] * 2
    assert sorted(interleave.order(3, 5)) == ["change", "parent"]


def test_a_loaded_package_is_separate_and_solves_alike():
    name = "qcpart_interleave_test"
    try:
        copy = interleave.load_package(ROOT, name)
        assert copy is not q and copy.partitioner is not q.partitioner
        assert copy.partitioner.__name__ == f"{name}.partitioner"
        circuit = q.benchmark_circuit("s")
        mine = q.partition(q.circuit_to_hypergraph(circuit), q.SolverConfig(k=3, seed=1))
        theirs = copy.partition(copy.circuit_to_hypergraph(copy.parse_circuit(
            q.serialize_circuit(circuit))), copy.SolverConfig(k=3, seed=1))
        assert theirs.labels == mine.labels
    finally:
        for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
            del sys.modules[key]
