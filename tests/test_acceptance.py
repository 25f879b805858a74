"""Acceptance suite: one check and one printed verdict line per criterion.

Each test prints ``criterion N: PASS`` or ``criterion N: FAIL`` (run pytest
with ``-s`` or read captured output to see the lines) and then asserts.
"""

import json

import pytest

import qcpart as q
from qcpart.cli import main as cli_main

from conftest import BASELINE_GROUPS, GOLDEN_HGR, REFERENCE_LABELS, brute_force_km1


def verdict(number: int, ok: bool) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed"


def test_criterion_1_hypergraph_golden_file(circuit_s):
    text = q.write_hgr(q.circuit_to_hypergraph(circuit_s), q.HgrMode.PAPER_RAW)
    verdict(1, text == GOLDEN_HGR)


def test_criterion_2_fidelity_formula():
    singles = [
        ((7, 4, 4), 0.4370),
        ((0, 1, 3), 0.5987),
        ((4, 1, 0), 0.9462),
        ((1, 1, 0), 0.9491),
        ((0, 1, 1), 0.8145),
        ((0, 2, 0), 0.9025),
    ]
    ok = all(
        abs(q.fidelity(h, c, s) - expected) <= 5e-4
        for (h, c, s), expected in singles
    )
    baseline_total = q.total_fidelity([q.fidelity(h, c, s) for (h, c, s), _ in singles])
    ok = ok and abs(baseline_total - 0.1724) <= 5e-4
    hypergraph_total = q.fidelity(8, 3, 0) * q.fidelity(4, 7, 0)
    ok = ok and abs(hypergraph_total - 0.5916) <= 5e-4
    verdict(2, ok)


def test_criterion_3_swap_estimation(baseline_partitions, reference_partitions):
    base = q.estimate_swaps(baseline_partitions, heuristic_on=False)
    ok = base.total == 8 and base.per_partition_attribution == (4, 3, 0, 0, 1, 0)
    ok = ok and q.estimate_swaps(reference_partitions).total == 0
    verdict(3, ok)


def test_criterion_4_cut_qubits(baseline_partitions, reference_partitions):
    ok = q.cut_qubits(baseline_partitions) == {0, 1, 4, 5}
    ok = ok and q.cut_qubits(reference_partitions) == {0, 1}
    verdict(4, ok)


def test_criterion_5_trimming(circuit_s, reference_partitions):
    p0, p1 = reference_partitions
    ok = p0.qubit_map == {0: 0, 1: 1, 2: 2, 3: 3}
    ok = ok and p1.qubit_map == {0: 0, 1: 1, 4: 2, 5: 3}
    ok = ok and len(p0.subcircuit.gates) == 11 and len(p1.subcircuit.gates) == 11
    expected0 = [g for g, l in zip(circuit_s.gates, REFERENCE_LABELS) if l == 0]
    expected1 = [g for g, l in zip(circuit_s.gates, REFERENCE_LABELS) if l == 1]
    ok = ok and list(p0.gates) == expected0 and list(p1.gates) == expected1
    verdict(5, ok)


def test_criterion_6_merge(reference_partitions):
    merged = q.merge_partitions(reference_partitions, threshold=2)
    ok = len(merged) == 1
    ok = ok and merged[0].qubit_map == {i: i for i in range(6)}
    ok = ok and len(merged[0].subcircuit.gates) == 22
    verdict(6, ok)


def test_criterion_7_dependency_dag(reference_partitions):
    dag = q.build_dependency_graph(reference_partitions)
    ok = dag.num_edges == 1 and dag.edges[0][:2] == (0, 1)
    ok = ok and dag.edges[0][2] == frozenset({0, 1})
    verdict(7, ok)


def test_criterion_8_dynamic_k():
    ok = (
        q.dynamic_k(22, 6, 4) == 2
        and q.dynamic_k(55, 10, 6) == 3
        and q.dynamic_k(88, 24, 8) == 4
    )
    verdict(8, ok)


def test_criterion_9_depths(baseline_partitions, reference_partitions):
    base = [q.depth(p.subcircuit) for p in baseline_partitions]
    ours = [q.depth(p.subcircuit) for p in reference_partitions]
    verdict(9, base == [7, 1, 5, 2, 1, 2] and ours == [6, 9])


def test_criterion_10_solver_quality(hypergraph_s, reference_assignment):
    norm = q.normalize_weights(hypergraph_s)
    bound = brute_force_km1(norm, reference_assignment.labels)
    asg = q.partition(hypergraph_s, q.SolverConfig(k=2, imbalance=0.05, seed=42))
    ok = q.check_balance(norm, asg, 0.05)
    ok = ok and q.km1(norm, asg) <= bound
    verdict(10, ok)


def test_criterion_11_property_suites():
    # The randomized suites (>= 200 cases each) live in test_properties.py;
    # here we assert that every named invariant is covered there.
    import test_properties as props

    required = [
        "test_trim_conserves_gates",
        "test_block_partition_conserves_gates",
        "test_qubit_maps_are_order_preserving_bijections",
        "test_parse_serialize_identity",
        "test_km1_relabel_invariance_and_scaling",
        "test_internal_solver_respects_balance",
        "test_dependency_dag_is_acyclic",
        "test_compare_output_is_deterministic",
    ]
    ok = all(hasattr(props, name) for name in required)
    ok = ok and props.PROPERTY_SETTINGS.max_examples >= 200
    verdict(11, ok)


def test_criterion_12_larger_circuits_structural_only(capsys):
    # No absolute metric values are asserted for the larger benchmarks; we
    # check only the part counts that dynamic k implies, end to end.
    ok = True
    for bench, block_size, expected_k in (("m", 6, 3), ("l", 8, 4)):
        code = cli_main([
            "partition", "--bench", bench, "--block-size", str(block_size),
            "--format", "json",
        ])
        doc = json.loads(capsys.readouterr().out)
        ok = ok and code == 0 and doc["num_partitions"] == expected_k
    verdict(12, ok)
