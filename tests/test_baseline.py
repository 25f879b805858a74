import json

import pytest

import qcpart as q

from conftest import BASELINE_GROUPS


class TestBlockPartition:
    def test_covers_all_gates_in_order(self, circuit_s):
        groups = q.block_partition(circuit_s, q.BaselineConfig(block_size=3))
        flat = [idx for g in groups for idx in g]
        assert sorted(flat) == list(range(22))
        for g in groups:
            assert g == sorted(g)

    def test_qubit_capacity_respected(self, circuit_s):
        for size in (2, 3, 4):
            groups = q.block_partition(circuit_s, q.BaselineConfig(block_size=size))
            for g in groups:
                qubits = {qb for idx in g for qb in circuit_s.gates[idx].qubits}
                assert len(qubits) <= size

    def test_causality_guard(self):
        # cx(0,1) then h(2) then cx(1,2): the last gate may not slide into the
        # first block because the middle block already touched qubit 2.
        c = q.Circuit(3, (q.cnot(0, 1), q.h(2), q.cnot(1, 2)))
        groups = q.block_partition(c, q.BaselineConfig(block_size=2))
        assert groups == [[0], [1, 2]]

    def test_oversized_gate_rejected(self):
        c = q.Circuit(3, (q.ccx(0, 1, 2),))
        with pytest.raises(ValueError):
            q.block_partition(c, q.BaselineConfig(block_size=2))

    def test_block_size_validated(self):
        with pytest.raises(ValueError):
            q.BaselineConfig(block_size=0)

    @pytest.mark.parametrize("size", [0, 2.5, 2.0, True])
    def test_block_size_must_be_an_integer(self, size):
        with pytest.raises(ValueError) as excinfo:
            q.BaselineConfig(size)
        assert str(excinfo.value) == f"block_size must be an integer >= 1, got {size!r}"


class TestRemapGroups:
    def test_reference_groups(self, circuit_s, baseline_partitions):
        assert len(baseline_partitions) == 6
        assert sum(len(p.subcircuit.gates) for p in baseline_partitions) == 22
        # each partition uses a sorted-contiguous local re-mapping
        for p in baseline_partitions:
            assert [p.qubit_map[g] for g in sorted(p.qubit_map)] == list(
                range(len(p.qubit_map))
            )

    def test_duplicate_index_rejected(self, circuit_s):
        with pytest.raises(q.FixtureError):
            q.remap_groups(circuit_s, [[0, 1], [1, 2]])

    def test_negative_index_rejected(self, circuit_s):
        with pytest.raises(q.FixtureError, match=r"gate index -1 out of range"):
            q.remap_groups(circuit_s, [[-1]])

    def test_index_past_end_rejected(self, circuit_s):
        with pytest.raises(q.FixtureError, match=r"gate index 22 out of range"):
            q.remap_groups(circuit_s, [[len(circuit_s.gates)]])


class TestFixtures:
    def test_builtin_fixture_matches_reference(self, circuit_s):
        groups = q.load_fixture(q.builtin_fixture_text("quick_s"), circuit_s)
        assert groups == BASELINE_GROUPS

    def test_bad_json(self, circuit_s):
        with pytest.raises(q.FixtureError):
            q.load_fixture("{not json", circuit_s)

    def test_out_of_range_index(self, circuit_s):
        with pytest.raises(q.FixtureError):
            q.load_fixture(json.dumps({"partitions": [[99]]}), circuit_s)

    def test_duplicate_index(self, circuit_s):
        with pytest.raises(q.FixtureError):
            q.load_fixture(json.dumps({"partitions": [[1], [1]]}), circuit_s)

    def test_boolean_index_rejected(self, circuit_s):
        # bool is a subclass of int, so True would pass as gate index 1
        with pytest.raises(q.FixtureError, match=r"^non-integer gate index True$"):
            q.load_fixture(json.dumps({"partitions": [[True, False], [2]]}), circuit_s)

    @pytest.mark.parametrize("doc", [{"partitions": 3}, [[0, 1], 2], "[[0]]"])
    def test_not_a_list_of_lists_rejected(self, circuit_s, doc):
        with pytest.raises(q.FixtureError, match=r"^fixture must hold a list of gate-index lists$"):
            q.load_fixture(json.dumps(doc), circuit_s)

    def test_bare_list_accepted(self, circuit_s):
        groups = q.load_fixture(json.dumps([[0, 1], [2]]), circuit_s)
        assert groups == [[0, 1], [2]]
