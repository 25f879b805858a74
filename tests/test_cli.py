import json

import pytest

import qcpart as q
from qcpart.cli import main

from conftest import GOLDEN_HGR


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConvert:
    def test_raw_mode_stdout(self, capsys):
        code, out, err = run_cli(capsys, "convert", "--bench", "s", "--mode", "paper-raw")
        assert code == 0
        assert out == GOLDEN_HGR
        assert "nodes: 22" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "s.hgr"
        code, out, _ = run_cli(
            capsys, "convert", "--bench", "s", "--mode", "paper-raw", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == GOLDEN_HGR

    def test_input_file(self, capsys, tmp_path):
        src = tmp_path / "c.txt"
        src.write_text(q.serialize_circuit(q.benchmark_circuit("s")))
        code, out, _ = run_cli(
            capsys, "convert", "--input", str(src), "--mode", "paper-raw"
        )
        assert code == 0
        assert out == GOLDEN_HGR

    def test_empty_circuit(self, capsys, tmp_path):
        src = tmp_path / "empty.txt"
        src.write_text("qubits 3\n")
        code, out, _ = run_cli(capsys, "convert", "--input", str(src))
        assert code == 0
        assert out.splitlines()[0] == "0 0 1"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "convert", "--input", "/nonexistent.txt")
        assert code == 1
        assert "error:" in err

    def test_parse_error(self, capsys, tmp_path):
        src = tmp_path / "bad.txt"
        src.write_text("qubits 2\nfrobnicate 0\n")
        code, _, err = run_cli(capsys, "convert", "--input", str(src))
        assert code == 1
        assert "error:" in err


class TestPartition:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--bench", "s", "--k", "2")
        assert code == 0
        assert "Partition 0:" in out
        assert "Dependency Graph:" in out
        assert "Total dependencies:" in out

    def test_json_output_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "partition", "--bench", "s", "--k", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["num_partitions"] == 2
        assert len(doc["labels"]) == 22
        total = sum(len(p["gates"]) for p in doc["partitions"])
        assert total == 22

    def test_block_size_drives_k(self, capsys):
        code, out, _ = run_cli(
            capsys, "partition", "--bench", "s", "--block-size", "4", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["num_partitions"] == 2

    # on l, four parts merge into one: the merge passes and the merged-part build
    @pytest.mark.parametrize("args", [
        ["--bench", "s", "--k", "2", "--merge-threshold", "1"],
        ["--bench", "l", "--k", "4", "--imbalance", "0.1", "--merge-threshold", "2"],
    ], ids=["s", "l"])
    def test_merge_threshold_alone_enables_merging(self, capsys, args):
        code, out, _ = run_cli(capsys, "partition", *args, "--format", "json")
        assert code == 0
        assert json.loads(out)["num_partitions"] == 1

    def test_k_or_block_size_required(self, capsys):
        code, _, err = run_cli(capsys, "partition", "--bench", "s")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("imbalance", ["nan", "inf"])
    def test_non_finite_imbalance_rejected(self, capsys, imbalance):
        code, out, err = run_cli(
            capsys, "partition", "--bench", "s", "--k", "2", "--imbalance", imbalance
        )
        assert code == 1
        assert out == ""
        assert err == "error: imbalance must be a finite number >= 0\n"

    def test_unpackable_instance_exits_one(self, capsys):
        # 12 nodes of weight 1000, one a part under this cap, 8 parts: the
        # packing check stops the solve before any bisection
        code, out, err = run_cli(
            capsys, "partition", "--bench", "s", "--k", "8", "--imbalance", "0.03"
        )
        assert (code, out) == (1, "")
        assert "no balanced bisection" in err


class TestCompare:
    def test_exit_zero_and_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--bench", "s", "--block-size", "4", "--k", "2"
        )
        assert code == 0
        assert "block-baseline" in out
        assert "hypergraph" in out

    # neither the fixture nor an explicit --k reads the block size
    @pytest.mark.parametrize("block_size", [["--block-size", "4"], []], ids=["block-size", "none"])
    def test_fixture_replay_reference_numbers(self, capsys, tmp_path, block_size):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(q.builtin_fixture_text("quick_s"))
        code, out, _ = run_cli(
            capsys,
            "compare", "--bench", "s", *block_size, "--k", "2",
            "--baseline-fixture", str(fixture), "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["baseline"]["swap_total"] == 8
        assert doc["baseline"]["cut_qubits"] == [0, 1, 4, 5]
        assert doc["baseline"]["swap_attribution"] == [4, 3, 0, 0, 1, 0]
        assert doc["baseline"]["max_depth"] == 7
        assert doc["baseline"]["total_fidelity"] == pytest.approx(0.1724, abs=5e-4)

    def test_structured_output_deterministic(self, capsys):
        docs = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys,
                "compare", "--bench", "s", "--block-size", "4", "--k", "2",
                "--seed", "42", "--format", "json",
            )
            assert code == 0
            doc = json.loads(out)
            doc.pop("timings")
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_env_var_selects_external_solver(self, capsys, tmp_path, monkeypatch):
        script = tmp_path / "solver"
        script.write_text(
            "#!/bin/sh\n"
            'while [ $# -gt 0 ]; do case "$1" in -h) hgr="$2"; shift 2;; *) shift;; esac; done\n'
            'n=$(head -1 "$hgr" | cut -d" " -f2)\n'
            'out="$hgr.part2"\n: > "$out"\ni=0\n'
            'while [ $i -lt $n ]; do echo $((i % 2)) >> "$out"; i=$((i + 1)); done\n'
        )
        script.chmod(0o755)
        monkeypatch.setenv("QCPART_SOLVER_BIN", str(script))
        # alternating labels put 8600 of 14000 node weight in part 1: eps >= 0.23
        code, out, _ = run_cli(
            capsys, "partition", "--bench", "s", "--k", "2", "--imbalance", "0.25",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["labels"] == [i % 2 for i in range(22)]

    def test_block_size_required(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--bench", "s", "--k", "2")
        assert (code, out, err) == (1, "", "error: --block-size is required for compare\n")

    def test_fixture_leaving_a_gate_out_exits_two(self, capsys, tmp_path):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps([list(range(21))]))  # gate 21 of 22 left out
        code, out, _ = run_cli(
            capsys,
            "compare", "--bench", "s", "--block-size", "4", "--k", "2",
            "--baseline-fixture", str(fixture),
        )
        assert code == 2
        assert out.splitlines()[-1] == "WARNING: gate count validation failed for block-baseline"

    # on l, 29 baseline parts: the SWAP waiver fires, and the gate counts validate
    @pytest.mark.parametrize("bench, parts, waived", [("s", 4, 0), ("l", 29, 75)],
                             ids=["s", "l"])
    def test_heuristic_flag_accepted(self, capsys, bench, parts, waived):
        code, out, _ = run_cli(
            capsys,
            "compare", "--bench", bench, "--block-size", "4", "--k", "2", "--heuristic",
            "--format", "json",
        )
        assert code == 0
        baseline = json.loads(out)["baseline"]
        assert (baseline["num_partitions"], baseline["swap_waived"]) == (parts, waived)
        assert baseline["gate_counts_valid"] is True

    def test_circuit_file_with_custom_gates(self, capsys, tmp_path):
        # the benchmark circuits hold no `g` line; with H, CNOT, SWAP, CCX and
        # custom gates of one, two and three qubits, the fidelity estimate
        # charges every rate and multiplicity `ErrorModel.charge` gives
        src = tmp_path / "custom.txt"
        src.write_text(
            "qubits 4\nh 0\ng RZZ 2 0 1\ncx 1 2\ng RZZ 2 2 3\nswap 1 3\nh 3\ncx 0 3\n"
            "ccx 0 1 2\ng RZ 1 2\ncx 2 3\ng G3 3 1 2 3\ncx 0 1\n"
        )
        code, out, _ = run_cli(
            capsys,
            "compare", "--input", str(src), "--block-size", "4", "--k", "2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        for method in ("baseline", "hypergraph"):
            assert doc[method]["gate_counts_valid"] is True
            assert 0 < doc[method]["total_fidelity"] <= 1
