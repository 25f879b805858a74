import logging

import pytest

import qcpart as q


class TestPartitionDataclass:
    def test_subcircuit_is_the_local_view(self):
        gates = [q.cnot(4, 2), q.h(7)]
        p = q.Partition(gates)
        assert p.qubit_map == {2: 0, 4: 1, 7: 2}
        assert p.subcircuit == q.Circuit(3, (q.cnot(1, 0), q.h(2)))
        assert p.gates == tuple(gates)
        assert all(a is b for a, b in zip(p.gates, gates))


class TestTrimming:
    def test_label_count_mismatch(self, circuit_s):
        with pytest.raises(ValueError):
            q.create_trimmed_partitions(circuit_s, [0] * 5)

    @pytest.mark.parametrize("labels, message", [
        ([0.5, 0], "label must be an integer >= 0, got 0.5"),
        ([0, True], "label must be an integer >= 0, got True"),
        ([-1, 0], "label must be an integer >= 0, got -1"),
    ], ids=["half", "bool", "negative"])
    def test_plain_labels_must_be_non_negative_ints(self, labels, message):
        # each used to give a part keyed by the bad label
        c = q.Circuit(2, (q.h(0), q.h(1)))
        with pytest.raises(ValueError) as excinfo:
            q.create_trimmed_partitions(c, labels)
        assert str(excinfo.value) == message

    def test_empty_label_id_warns_and_skips(self, caplog):
        c = q.Circuit(2, (q.h(0), q.h(1)))
        asg = q.PartitionAssignment((0, 0), 2)
        with caplog.at_level(logging.WARNING, logger="qcpart.pipeline"):
            parts = q.create_trimmed_partitions(c, asg)
        assert len(parts) == 1
        assert any("empty" in r.message for r in caplog.records)


class TestMerging:
    def test_reference_pair_merges_to_full_circuit(self, circuit_s, reference_partitions):
        merged = q.merge_partitions(reference_partitions, threshold=2)
        assert len(merged) == 1
        assert merged[0].qubit_map == {i: i for i in range(6)}
        assert len(merged[0].gates) == 22

    def test_threshold_blocks_merge(self, reference_partitions):
        merged = q.merge_partitions(reference_partitions, threshold=3)
        assert len(merged) == 2

    def test_best_partner_wins(self):
        # p0 shares 1 qubit with p1 but 2 with p2: p2 is preferred.
        p0 = q.Partition([q.cnot(0, 1)])
        p1 = q.Partition([q.cnot(1, 5)])
        p2 = q.Partition([q.cnot(0, 1), q.h(7)])
        merged = q.merge_partitions([p0, p1, p2], threshold=1)
        # pass 1: p0+p2 merge (2 shared beats 1), p1 left; pass 2 merges the rest
        assert len(merged) == 1
        assert set(merged[0].qubit_map) == {0, 1, 5, 7}

    def test_multi_pass_cascade(self):
        # Disjoint at first sight: a+b merge enables merging with c next pass.
        a = q.Partition([q.cnot(0, 1)])
        b = q.Partition([q.cnot(2, 3)])
        c = q.Partition([q.cnot(1, 2)])
        merged = q.merge_partitions([a, c, b], threshold=1)
        assert len(merged) == 1

    def test_threshold_validated(self, reference_partitions):
        with pytest.raises(ValueError):
            q.merge_partitions(reference_partitions, threshold=0)

    @pytest.mark.parametrize("threshold", [0, 1.5, 1.0, True])
    def test_threshold_must_be_an_integer(self, reference_partitions, threshold):
        with pytest.raises(ValueError) as excinfo:
            q.merge_partitions(reference_partitions, threshold)
        assert str(excinfo.value) == f"threshold must be an integer >= 1, got {threshold!r}"

    def test_gate_order_preserved(self):
        a = q.Partition([q.h(0), q.cnot(0, 2)])
        b = q.Partition([q.h(2)])
        [merged] = q.merge_partitions([a, b], threshold=1)
        assert merged.gates == (q.h(0), q.cnot(0, 2), q.h(2))


class TestDependencyDag:
    def test_disjoint_partitions(self):
        a = q.Partition([q.h(0)])
        b = q.Partition([q.h(1)])
        assert q.build_dependency_graph([a, b]).num_edges == 0

    def test_edges_are_forward_only(self):
        parts = [
            q.Partition([q.cnot(0, 1)]),
            q.Partition([q.cnot(1, 2)]),
            q.Partition([q.cnot(2, 0)]),
        ]
        dag = q.build_dependency_graph(parts)
        assert [(i, j) for i, j, _ in dag.edges] == [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("edge", [(1, 0), (0, 0), (-1, 1), (0, 2)])
    def test_edge_outside_index_order_rejected(self, edge):
        with pytest.raises(ValueError, match=r"bad edge \(%d, %d\)" % edge):
            q.DependencyDag(2, ((*edge, frozenset({0})),))

    def test_edge_without_shared_qubits_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(0, 1\) carries no shared qubits"):
            q.DependencyDag(2, ((0, 1, frozenset()),))


class TestRunPipeline:
    def test_end_to_end_shape(self, circuit_s):
        res = q.run_hypergraph_pipeline(circuit_s, k=2, seed=42)
        assert isinstance(res, q.PipelineResult)
        assert res.assignment.k == 2
        assert sum(len(p.gates) for p in res.partitions) == 22
        assert res.dag.num_partitions == len(res.partitions)

    def test_merge_threshold_applied(self, circuit_s):
        res = q.run_hypergraph_pipeline(circuit_s, k=2, seed=42, merge_threshold=1)
        assert len(res.partitions) == 1
        assert len(res.partitions[0].gates) == 22
