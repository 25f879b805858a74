"""The output and the comparison of tools/digests.py, on made-up digest
lines; nothing here runs a benchmark instance or starts a subprocess."""

import hashlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("digests", ROOT / "tools" / "digests.py")
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)

A = digests.line("paper-grid", 7, 810, 268, "a" * 64)
B = digests.line("synth-solve", 7, 240, 0, "b" * 64)


def test_line_names_the_counts_and_the_hash():
    assert A == f"paper-grid seed 7: 810 instances, 268 SolverError, sha256 {'a' * 64}"


def test_combine_hashes_the_digests_in_order():
    assert digests.combine(["01", "02"]) == hashlib.sha256(b"01\n02").hexdigest()
    assert digests.combine(["01", "02"]) != digests.combine(["02", "01"])


def test_identical_lines_compare_equal():
    lines, same = digests.compare([A, B], [A, B])
    assert same
    assert lines == [f"identical  {A}", f"identical  {B}"]


def test_a_differing_line_shows_both_sides():
    changed = digests.line("synth-solve", 7, 240, 1, "c" * 64)
    lines, same = digests.compare([A, B], [A, changed])
    assert not same
    assert lines == [f"identical  {A}", f"DIFFERS    parent {B}", f"           change {changed}"]


def test_a_missing_line_differs():
    lines, same = digests.compare([A, B], [A])
    assert not same
    assert lines[-1] == "DIFFERS    2 parent lines, 1 change lines"


def test_main_exits_1_when_a_side_differs(monkeypatch, capsys):
    sides = {}

    def fake_export(rev, dest):
        sides["parent"] = dest
        return "f" * 40

    def fake_run_side(root, workloads, seeds, size):
        assert (workloads, seeds, size) == (["synth-solve"], [3], "tiny")
        if root == sides["parent"]:
            return [B]
        return [B if same else digests.line("synth-solve", 7, 240, 0, "d" * 64)]

    monkeypatch.setattr(digests, "export", fake_export)
    monkeypatch.setattr(digests, "run_side", fake_run_side)
    argv = ["--parent", "HEAD", "--workload", "synth-solve", "--seed", "3", "--size", "tiny"]
    for same, status in ((True, 0), (False, 1)):
        assert digests.main(argv) == status
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"parent {'f' * 40}, seed 3, size tiny"
        assert out[1].startswith("identical" if same else "DIFFERS")


def test_repeated_seed_gives_one_line_per_seed_and_workload(monkeypatch, capsys):
    calls = []

    def fake_measure(root, workloads, seeds, size):
        calls.append((workloads, seeds))
        return [digests.line(w, s, 1, 0, "e" * 64) for s in seeds for w in workloads]

    monkeypatch.setattr(digests, "measure", fake_measure)
    argv = ["--seed", "7", "--seed", "23", "--workload", "paper-grid", "--workload", "many-parts"]
    assert digests.main(argv) == 0
    assert calls == [(["paper-grid", "many-parts"], [7, 23])]
    assert capsys.readouterr().out.splitlines() == [
        digests.line("paper-grid", 7, 1, 0, "e" * 64),
        digests.line("many-parts", 7, 1, 0, "e" * 64),
        digests.line("paper-grid", 23, 1, 0, "e" * 64),
        digests.line("many-parts", 23, 1, 0, "e" * 64),
    ]
    assert digests.main(["--workload", "paper-grid"]) == 0
    assert calls[-1] == (["paper-grid"], [7])


def test_run_side_passes_every_seed(monkeypatch):
    ran = []

    class Done:
        returncode, stdout, stderr = 0, "x\ny\n", ""

    monkeypatch.setattr(digests.subprocess, "run", lambda cmd, **kw: ran.append(cmd) or Done())
    assert digests.run_side(Path("/r"), ["synth-solve"], [7, 23], "tiny") == ["x", "y"]
    assert ran[0][2:] == ["--root", "/r", "--size", "tiny", "--seed", "7", "--seed", "23",
                          "--workload", "synth-solve"]
