import pytest

import qcpart as q


def product_fidelity_oracle(h, c, s, eps_h=0.001, eps_c=0.05):
    """Direct product form of the per-partition fidelity."""
    return (1 - eps_h) ** h * (1 - eps_c) ** (c + 3 * s)


class TestFidelity:
    def test_matches_direct_product(self):
        for h, c, s in [(0, 0, 0), (3, 2, 1), (10, 5, 0), (1, 0, 7)]:
            assert q.fidelity(h, c, s) == pytest.approx(
                product_fidelity_oracle(h, c, s), rel=1e-12
            )

    def test_ccx_counts_as_six_cnots(self):
        f = q.fidelity(0, 0, 0, {q.CCX: 1})
        assert f == pytest.approx(0.95**6, rel=1e-12)

    def test_swap_kind_counts_as_three_cnots(self):
        f = q.fidelity(0, 0, 0, {q.SWAP: 2})
        assert f == pytest.approx(0.95**6, rel=1e-12)

    def test_unknown_single_qubit_gate(self):
        rz = q.GateKind("RZ", 1)
        assert q.fidelity(0, 0, 0, {rz: 4}) == pytest.approx(0.999**4, rel=1e-12)

    def test_unknown_multi_qubit_gate(self):
        g4 = q.GateKind("G4", 4)
        assert q.fidelity(0, 0, 0, {g4: 1}) == pytest.approx(0.95**3, rel=1e-12)

    def test_unknown_multi_qubit_gate_charged_at_its_own_rate(self):
        # circuit_to_hypergraph weights this gate's hyperedge with
        # eps_default_multi, so its fidelity charge uses the same rate.
        g4 = q.GateKind("G4", 4)
        model = q.ErrorModel(eps_default_multi=0.2)
        assert q.fidelity(0, 0, 0, {g4: 1}, model) == pytest.approx(0.8**3, rel=1e-12)
        assert q.fidelity(0, 2, 0, {g4: 2}, model) == pytest.approx(0.95**2 * 0.8**6, rel=1e-12)

    def test_h_and_cnot_kinds_count_as_their_own_counts(self):
        m = q.ErrorModel(eps_h=0.01, eps_cnot=0.02)
        assert q.fidelity(0, 0, 0, {q.H: 1}, m) == pytest.approx(0.99, rel=1e-12)
        assert q.fidelity(0, 0, 0, {q.H: 2, q.CNOT: 3}, m) == q.fidelity(2, 3, 0, None, m)
        assert q.fidelity(1, 1, 1, {q.H: 1, q.CNOT: 1}, m) == q.fidelity(2, 2, 1, None, m)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            q.fidelity(-1, 0, 0)
        with pytest.raises(ValueError):
            q.fidelity(0, 0, 0, {q.CCX: -1})

    def test_total_fidelity(self):
        assert q.total_fidelity([0.5, 0.5]) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            q.total_fidelity([1.2])


class TestSwapEstimation:
    def test_baseline_reference(self, baseline_partitions):
        est = q.estimate_swaps(baseline_partitions)
        assert est.total == 8
        assert est.per_partition_attribution == (4, 3, 0, 0, 1, 0)
        assert est.waived == 0

    def test_aligned_partitions_cost_nothing(self, reference_partitions):
        est = q.estimate_swaps(reference_partitions)
        assert est.total == 0
        assert est.waived == 0

    def _waiver_parts(self):
        # One partition holds global qubit 5 at local 0; five others hold it
        # at local 1: five misalignments of the same qubit, in pair order
        # (0,1), (0,2), ..., (0,5).
        first = q.Partition((q.h(5),))
        others = [q.Partition((q.cnot(0, 5),)) for _ in range(5)]
        return [first] + others

    def test_waiver_applies_after_three_misalignments(self):
        # Seed 7: the first two draws are both < 0.6, waiving exactly the
        # fourth and fifth misalignment.
        est = q.estimate_swaps(self._waiver_parts(), heuristic_on=True, seed=7)
        assert est.total == 3
        assert est.waived == 2
        assert est.per_partition_attribution[0] == 3

    def test_waiver_can_decline(self):
        # Seed 8: the first two draws are both >= 0.6; nothing is waived.
        est = q.estimate_swaps(self._waiver_parts(), heuristic_on=True, seed=8)
        assert est.total == 5
        assert est.waived == 0

    def test_heuristic_off_never_waives(self):
        est = q.estimate_swaps(self._waiver_parts(), heuristic_on=False, seed=7)
        assert est.total == 5
        assert est.waived == 0

    def test_per_pair_counts_must_sum_to_total(self):
        with pytest.raises(ValueError, match="per-pair counts do not sum to total"):
            q.SwapEstimate(3, {(0, 1): 2}, (3,), 0)

    def test_attribution_must_sum_to_total(self):
        with pytest.raises(ValueError, match="attribution does not sum to total"):
            q.SwapEstimate(2, {(0, 1): 2}, (1, 0), 0)


class TestPartitionMetrics:
    def test_baseline_depths_and_fidelities(self, baseline_partitions):
        est = q.estimate_swaps(baseline_partitions)
        rows = [
            q.partition_metrics(p, est.per_partition_attribution[i])
            for i, p in enumerate(baseline_partitions)
        ]
        assert [r.depth for r in rows] == [7, 1, 5, 2, 1, 2]
        expected = [0.4370, 0.5987, 0.9462, 0.9491, 0.8145, 0.9025]
        for r, f in zip(rows, expected):
            assert r.fidelity == pytest.approx(f, abs=5e-4)
        total = q.total_fidelity([r.fidelity for r in rows])
        assert total == pytest.approx(0.1724, abs=5e-4)

    def test_reference_depths_and_fidelities(self, reference_partitions):
        rows = [q.partition_metrics(p, 0) for p in reference_partitions]
        assert [r.depth for r in rows] == [6, 9]
        assert rows[0].fidelity == pytest.approx(0.8505, abs=5e-4)
        assert rows[1].fidelity == pytest.approx(0.6956, abs=5e-4)
        total = q.total_fidelity([r.fidelity for r in rows])
        assert total == pytest.approx(0.5916, abs=5e-4)

    def test_kinds_built_apart_as_h_and_cnot_count_as_them(self):
        # kinds are interned: H and CNOT built apart are the built-in
        # objects, and count as them
        h, cnot = q.GateKind("H", 1), q.GateKind("CNOT", 2)
        assert h is q.H and cnot is q.CNOT
        g4 = q.GateKind("G4", 4)
        builtin = [q.Gate(q.H, (0,)), q.Gate(q.CNOT, (0, 1)), q.Gate(q.H, (1,)),
                   q.Gate(g4, (0, 1, 2, 3)), q.Gate(q.CNOT, (2, 1)), q.Gate(q.CCX, (0, 1, 2))]
        apart = [q.Gate(h, (0,)), q.Gate(cnot, (0, 1)), q.Gate(q.H, (1,)),
                 q.Gate(g4, (0, 1, 2, 3)), q.Gate(cnot, (2, 1)), q.Gate(q.CCX, (0, 1, 2))]
        expected = q.partition_metrics(q.Partition(builtin), 1)
        assert (expected.h_count, expected.cnot_count) == (2, 2)
        assert q.partition_metrics(q.Partition(apart), 1) == expected

    def test_error_rate(self):
        m = q.PartitionMetrics(1, 1, 1, 0, 0, fidelity=0.75)
        assert m.error_rate == pytest.approx(0.25)


class TestValidation:
    def test_partitioning_conserves_gates(self, circuit_s, reference_partitions):
        assert q.validate_gate_counts(circuit_s, reference_partitions) is True

    def test_missing_gate_detected(self, circuit_s, reference_partitions):
        broken = reference_partitions[:1]
        assert q.validate_gate_counts(circuit_s, broken) is False

    def test_swap_gates_ignored(self):
        c = q.Circuit(2, (q.cnot(0, 1),))
        with_comm_swaps = [
            q.Partition([q.cnot(0, 1), q.swap(0, 1)])
        ]
        assert q.validate_gate_counts(c, with_comm_swaps) is True


class TestReports:
    def test_build_report_headline(self, circuit_s, baseline_partitions, reference_partitions):
        rep = q.build_report(circuit_s, baseline_partitions, reference_partitions)
        assert rep.baseline.swaps.total == 8
        assert rep.hypergraph.swaps.total == 0
        assert rep.baseline.max_depth == 7
        assert rep.hypergraph.max_depth == 9
        assert len(rep.baseline.cut_qubits) == 4
        assert len(rep.hypergraph.cut_qubits) == 2
        assert rep.baseline.total_fidelity == pytest.approx(0.1724, abs=5e-4)
        assert rep.hypergraph.total_fidelity == pytest.approx(0.5916, abs=5e-4)
        assert rep.baseline.gate_counts_valid and rep.hypergraph.gate_counts_valid

    def test_report_dict_is_deterministic(self, circuit_s, baseline_partitions, reference_partitions):
        a = q.report_to_dict(q.build_report(circuit_s, baseline_partitions, reference_partitions))
        b = q.report_to_dict(q.build_report(circuit_s, baseline_partitions, reference_partitions))
        assert a == b
        assert "timings" in a

    def test_format_report_mentions_methods(self, circuit_s, baseline_partitions, reference_partitions):
        text = q.format_report(q.build_report(circuit_s, baseline_partitions, reference_partitions))
        assert "block-baseline" in text
        assert "hypergraph" in text
