"""The digest lines, their comparison, the quality lines, the summary, side
order and package loading of tools/interleave.py; nothing here exports a
revision, runs a benchmark instance or starts a subprocess."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

import qcpart as q

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("interleave", ROOT / "tools" / "interleave.py")
interleave = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(interleave)

A = interleave.line("paper-grid", 7, 810, 268, "a" * 64)
B = interleave.line("synth-solve", 7, 240, 0, "b" * 64)


def test_line_names_the_counts_and_the_hash():
    assert A == f"paper-grid seed 7: 810 instances, 268 SolverError, sha256 {'a' * 64}"


def test_combine_hashes_the_digests_in_order():
    assert interleave.combine(["01", "02"]) == hashlib.sha256(b"01\n02").hexdigest()
    assert interleave.combine(["01", "02"]) != interleave.combine(["02", "01"])


def test_identical_lines_compare_equal():
    lines, same = interleave.compare([A, B], [A, B])
    assert same
    assert lines == [f"identical  {A}", f"identical  {B}"]


def test_a_differing_line_shows_both_sides():
    changed = interleave.line("synth-solve", 7, 240, 1, "c" * 64)
    lines, same = interleave.compare([A, B], [A, changed])
    assert not same
    assert lines == [f"identical  {A}", f"DIFFERS    parent {B}", f"           change {changed}"]


def test_a_missing_line_differs():
    lines, same = interleave.compare([A, B], [A])
    assert not same
    assert lines[-1] == "DIFFERS    2 parent lines, 1 change lines"


def _quality(km1, km1_random, gain):
    return interleave.checks.Quality(solved=True, rejected=False, km1=km1,
                                     km1_random=km1_random, log_fidelity_gain=gain)


def test_main_exits_1_when_a_side_differs(monkeypatch, capsys):
    qualities = {"parent": [_quality(1.0, 2.0, 3.0)], "change": [None]}

    def fake_measure(packages, workload, seed, rounds, size):
        assert (list(packages), workload, seed, rounds, size) == (
            ["parent", "change"], "synth-solve", 3, 1, "tiny")
        change = B if same else interleave.line("synth-solve", 7, 240, 0, "d" * 64)
        return ({"parent": B, "change": change}, {"parent": [0.002], "change": [0.001]},
                [False], qualities)

    monkeypatch.setattr(interleave, "export", lambda rev, dest: "f" * 40)
    monkeypatch.setattr(interleave, "load_package", lambda root, name: name)
    monkeypatch.setattr(interleave, "measure", fake_measure)
    argv = ["--parent", "HEAD", "--workload", "synth-solve", "--seed", "3", "--size", "tiny"]
    for same, status in ((True, 0), (False, 1)):
        assert interleave.main(argv) == status
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"parent {'f' * 40}, seed 3, size tiny, 1 rounds"
        assert out[1].startswith("identical" if same else "DIFFERS")
        assert out[-4:-2] == interleave.quality_report("synth-solve", qualities)
        summary = interleave.summarize({"parent": [0.002], "change": [0.001]})
        assert out[-2:] == [interleave.report("synth-solve", summary),
                            interleave.report("synth-solve solved", summary)]


def test_repeated_seed_gives_one_line_per_seed_and_workload(monkeypatch, capsys):
    calls = []

    def fake_measure(packages, workload, seed, rounds, size):
        calls.append((list(packages), workload, seed))
        return ({"change": interleave.line(workload, seed, 1, 0, "e" * 64)}, {"change": [1.0]},
                [], {"change": [_quality(1.0, 2.0, 0.5)]})

    monkeypatch.setattr(interleave, "load_package", lambda root, name: name)
    monkeypatch.setattr(interleave, "measure", fake_measure)
    argv = ["--seed", "7", "--seed", "23", "--workload", "paper-grid", "--workload", "many-parts"]
    assert interleave.main(argv) == 0
    assert [call[1:] for call in calls] == [
        ("paper-grid", 7), ("many-parts", 7), ("paper-grid", 23), ("many-parts", 23)]
    assert all(call[0] == ["change"] for call in calls)
    assert capsys.readouterr().out.splitlines() == [
        interleave.line("paper-grid", 7, 1, 0, "e" * 64),
        interleave.line("many-parts", 7, 1, 0, "e" * 64),
        interleave.line("paper-grid", 23, 1, 0, "e" * 64),
        interleave.line("many-parts", 23, 1, 0, "e" * 64),
        *interleave.quality_report("paper-grid", {"change": [_quality(1.0, 2.0, 0.5)] * 2}),
        *interleave.quality_report("many-parts", {"change": [_quality(1.0, 2.0, 0.5)] * 2}),
    ]
    calls.clear()
    assert interleave.main([]) == 0
    assert [call[1:] for call in calls] == [(name, 7) for name in interleave.bench.WORKLOADS]


def test_quality_is_taken_over_the_instances_every_side_solved():
    qualities = {
        "parent": [_quality(1.0, 4.0, 2.0), _quality(3.0, 3.0, 4.0), _quality(5.0, 5.0, 0.0),
                   None],
        "change": [_quality(1.0, 1.0, 4.0), _quality(8.0, 2.0, 0.0), None,
                   _quality(1.0, 2.0, 3.0)],
    }
    # both sides solved instances 0 and 1: geomeans of 1/4, 1 and of 1, 4
    assert interleave.quality_report("synth-solve", qualities) == [
        "synth-solve parent: 4 instances, 1 SolverError; over the 2 every side solved, "
        "geomean km1/km1(random) 0.5000, mean ln F gain 3.000",
        "synth-solve change: 4 instances, 1 SolverError; over the 2 every side solved, "
        "geomean km1/km1(random) 2.0000, mean ln F gain 2.000",
    ]


def test_quality_without_an_instance_every_side_solved_gives_counts():
    solved = _quality(1.0, 2.0, 1.0)
    qualities = {"parent": [None, solved], "change": [solved, None]}
    assert interleave.quality_report("paper-grid", qualities) == [
        "paper-grid parent: 2 instances, 1 SolverError",
        "paper-grid change: 2 instances, 1 SolverError",
    ]


def test_quality_of_a_solve_is_the_benchmarks_with_or_without_its_report():
    circuit = q.benchmark_circuit("s")
    inst = interleave.bench.Instance("s", q.serialize_circuit(circuit), len(circuit), k=2,
                                     imbalance=0.1, seed=1, block_size=4, compare=False)
    result = q.run_hypergraph_pipeline(circuit, k=2, imbalance=0.1, seed=1)
    baseline = q.remap_groups(circuit, q.block_partition(circuit, q.BaselineConfig(4)))
    report = q.build_report(circuit, baseline, list(result.partitions))
    compared = interleave.bench.Outcome(circuit, result, report)
    expected = interleave.checks.quality(q, inst, compared, True, report)
    assert interleave.solved_quality(q, inst, compared) == expected
    uncompared = interleave.bench.Outcome(circuit, result)
    assert interleave.solved_quality(q, inst, uncompared) == expected
    assert expected.km1 == q.km1(result.hypergraph, result.assignment) > 0
    failed = interleave.bench.Outcome(circuit, error="no balanced bisection")
    assert interleave.solved_quality(q, inst, failed) is None


def test_summary_takes_quartiles_of_the_per_run_ratios():
    times = {"parent": [0.010, 0.020, 0.040, 0.010, 0.030],
             "change": [0.009, 0.016, 0.040, 0.006, 0.027]}
    summary = interleave.summarize(times)
    # ratios 0.9, 0.8, 1.0, 0.6, 0.9; exclusive quartiles of five values
    assert summary["runs"] == 5
    assert summary["ratio_median"] == pytest.approx(0.9)
    assert summary["ratio_q1"] == pytest.approx(0.7)
    assert summary["ratio_q3"] == pytest.approx(0.95)
    # summed times 0.098 against 0.110: the total ratio is not the median
    assert summary["ratio_total"] == pytest.approx(0.098 / 0.110)
    assert summary["parent_median_ms"] == pytest.approx(20.0)
    assert summary["change_median_ms"] == pytest.approx(16.0)


def test_summary_of_one_run():
    summary = interleave.summarize({"parent": [0.004], "change": [0.005]})
    assert summary["ratio_q1"] == summary["ratio_median"] == summary["ratio_q3"] == 1.25


def test_report_names_the_ratio_and_both_medians():
    summary = interleave.summarize({"parent": [0.010, 0.010], "change": [0.009, 0.009]})
    assert interleave.report("synth-solve", summary) == (
        "synth-solve: 2 runs per side, time ratio change/parent median 0.900 "
        "(quartiles 0.900-0.900), total 0.900; median instance parent 10.000 ms, "
        "change 9.000 ms")


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
