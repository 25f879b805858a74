"""Randomized property suites for the pipeline invariants."""

from collections import Counter

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import qcpart as q
from qcpart import partitioner
from qcpart.hypergraph import scaled_weights

from conftest import PROPERTY_SETTINGS, REFERENCE_LABELS, assert_hgr_round_trip, edge_families


@st.composite
def circuits(draw, max_qubits=8, max_gates=30):
    num_qubits = draw(st.integers(min_value=1, max_value=max_qubits))
    kinds = [q.H]
    if num_qubits >= 2:
        kinds += [q.CNOT, q.SWAP]
    if num_qubits >= 3:
        kinds.append(q.CCX)
    gates = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_gates))):
        kind = draw(st.sampled_from(kinds))
        qubits = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_qubits - 1),
                min_size=kind.arity,
                max_size=kind.arity,
                unique=True,
            )
        )
        gates.append(q.Gate(kind, tuple(qubits)))
    return q.Circuit(num_qubits, tuple(gates))


def gate_multiset(gates):
    return Counter((g.kind, g.qubits) for g in gates)


@PROPERTY_SETTINGS
@given(circuit=circuits(), data=st.data())
def test_trim_conserves_gates(circuit, data):
    k = data.draw(st.integers(min_value=1, max_value=4))
    labels = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=k - 1),
            min_size=len(circuit.gates),
            max_size=len(circuit.gates),
        )
    )
    parts = q.create_trimmed_partitions(circuit, labels)
    recovered = Counter()
    for p in parts:
        recovered.update(gate_multiset(p.gates))
    assert recovered == gate_multiset(circuit.gates)
    assert q.validate_gate_counts(circuit, parts)


@PROPERTY_SETTINGS
@given(circuit=circuits(), block_size=st.integers(min_value=3, max_value=6))
def test_block_partition_conserves_gates(circuit, block_size):
    groups = q.block_partition(circuit, q.BaselineConfig(block_size))
    parts = q.remap_groups(circuit, groups)
    recovered = Counter()
    for p in parts:
        recovered.update(gate_multiset(p.gates))
    assert recovered == gate_multiset(circuit.gates)
    assert q.validate_gate_counts(circuit, parts)


@PROPERTY_SETTINGS
@given(circuit=circuits())
def test_qubit_maps_are_order_preserving_bijections(circuit):
    assume(circuit.gates)
    groups = q.block_partition(circuit, q.BaselineConfig(3))
    for p in q.remap_groups(circuit, groups):
        globals_sorted = sorted(p.qubit_map)
        locals_ = [p.qubit_map[g] for g in globals_sorted]
        # bijective onto 0..n-1 and strictly increasing with the globals
        assert locals_ == list(range(len(p.qubit_map)))
        assert len(set(p.qubit_map.values())) == len(p.qubit_map)


@PROPERTY_SETTINGS
@given(circuit=circuits())
def test_parse_serialize_identity(circuit):
    assert q.parse_circuit(q.serialize_circuit(circuit)) == circuit


@PROPERTY_SETTINGS
@given(circuit=circuits(), data=st.data())
def test_km1_relabel_invariance_and_scaling(circuit, data):
    assume(circuit.gates)
    hg = q.circuit_to_hypergraph(circuit)
    k = data.draw(st.integers(min_value=1, max_value=4))
    labels = tuple(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=k - 1),
                min_size=hg.num_nodes,
                max_size=hg.num_nodes,
            )
        )
    )
    perm = data.draw(st.permutations(list(range(k))))
    base = q.km1(hg, q.PartitionAssignment(labels, k))
    relabeled = q.km1(
        hg, q.PartitionAssignment(tuple(perm[l] for l in labels), k)
    )
    assert relabeled == base

    factor = data.draw(st.integers(min_value=1, max_value=5))
    scaled_hg = q.Hypergraph(
        hg.num_nodes,
        hg.node_weights,
        tuple(
            q.Hyperedge(e.members, e.weight * factor)
            for e in hg.hyperedges
        ),
    )
    assert q.km1(scaled_hg, q.PartitionAssignment(labels, k)) == factor * base


@PROPERTY_SETTINGS
@given(circuit=circuits(), data=st.data())
def test_gate_level_edges_add_nothing_to_km1(circuit, data):
    assume(circuit.gates)
    hg = q.circuit_to_hypergraph(circuit)
    singletons, chains = edge_families(circuit)
    assert [e.members for e in hg.hyperedges] == singletons + chains
    temporal = hg.hyperedges[len(singletons):]
    k = data.draw(st.integers(min_value=1, max_value=4))
    labels = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=k - 1),
            min_size=hg.num_nodes,
            max_size=hg.num_nodes,
        )
    )
    assignment = q.PartitionAssignment(tuple(labels), k)
    without = q.Hypergraph(hg.num_nodes, hg.node_weights, temporal)
    assert q.km1(without, assignment) == q.km1(hg, assignment)
    # the internal solver never sees them
    n = hg.num_nodes
    edges = list(zip(scaled_weights(hg), (e.members for e in hg.hyperedges)))
    _, top_edges = partitioner._mapped([0] * n, edges, list(range(n)), n)
    assert len(top_edges) == len(temporal)


@PROPERTY_SETTINGS
@given(circuit=circuits())
def test_hgr_round_trip(circuit):
    assert_hgr_round_trip(q.circuit_to_hypergraph(circuit))


@PROPERTY_SETTINGS
@given(
    circuit=circuits(max_qubits=6, max_gates=20),
    k=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_internal_solver_respects_balance(circuit, k, seed):
    hg = q.circuit_to_hypergraph(circuit)
    assume(hg.num_nodes >= k)
    try:
        asg = q.partition(hg, q.SolverConfig(k=k, imbalance=0.05, seed=seed))
    except q.SolverError:
        # infeasible instances are allowed to be rejected, never mislabeled
        return
    assert len(asg.labels) == hg.num_nodes
    assert q.check_balance(q.normalize_weights(hg), asg, 0.05)


@PROPERTY_SETTINGS
@given(circuit=circuits(), data=st.data())
def test_dependency_dag_is_acyclic(circuit, data):
    """The DAG's edges follow part index order, so ``i < j`` holds by
    construction: this says nothing about gate causality, which a part
    order that respects the circuit's gate order would need
    (``is_executable`` below checks that)."""
    assume(circuit.gates)
    k = data.draw(st.integers(min_value=1, max_value=4))
    labels = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=k - 1),
            min_size=len(circuit.gates),
            max_size=len(circuit.gates),
        )
    )
    parts = q.create_trimmed_partitions(circuit, labels)
    dag = q.build_dependency_graph(parts)
    # every edge goes from a lower to a strictly higher index: no cycles
    assert all(i < j for i, j, _ in dag.edges)
    order = list(range(dag.num_partitions))
    position = {p: i for i, p in enumerate(order)}
    assert all(position[i] < position[j] for i, j, _ in dag.edges)


def causal_handoffs(circuit, part_of):
    """The causal quotient graph's edges, one per handoff: a pair of
    consecutive gates on one qubit, the first in part a and the second in
    part b != a, draws a -> b. ``part_of[i]`` is gate i's part."""
    last = {}  # qubit -> the part of its latest gate
    handoffs = []
    for idx, gate in enumerate(circuit.gates):
        part = part_of[idx]
        for qubit in gate.qubits:
            if last.get(qubit, part) != part:
                handoffs.append((last[qubit], part))
            last[qubit] = part
    return handoffs


def is_executable(handoffs) -> bool:
    """Whether the handoff graph is acyclic, so some order of the parts
    runs each gate after the earlier gates on its qubits: parts with no
    incoming handoff are peeled off until no edge is left, or a cycle is."""
    edges = set(handoffs)
    while edges:
        sources = {a for a, _ in edges} - {b for _, b in edges}
        if not sources:
            return False
        edges = {(a, b) for a, b in edges if a not in sources}
    return True


def block_labels(groups):
    """Gate index -> its block, from `block_partition`'s groups."""
    return {idx: part for part, group in enumerate(groups) for idx in group}


@PROPERTY_SETTINGS
@given(circuit=circuits(), block_size=st.integers(min_value=3, max_value=6))
def test_block_baseline_is_executable(circuit, block_size):
    groups = q.block_partition(circuit, q.BaselineConfig(block_size))
    assert is_executable(causal_handoffs(circuit, block_labels(groups)))


@pytest.mark.parametrize(("bench", "count"), [("s", 10), ("m", 55), ("l", 91)])
def test_block_baseline_handoffs(bench, count):
    circuit = q.benchmark_circuit(bench)
    groups = q.block_partition(circuit, q.BaselineConfig(4))
    handoffs = causal_handoffs(circuit, block_labels(groups))
    assert len(handoffs) == count
    assert is_executable(handoffs)


def test_quick_partitioner_fixture_is_executable():
    circuit = q.benchmark_circuit("s")
    groups = q.load_fixture(q.builtin_fixture_text("quick_s"), circuit)
    handoffs = causal_handoffs(circuit, block_labels(groups))
    assert len(handoffs) == 9
    assert is_executable(handoffs)


def test_reference_labels_are_not_executable():
    # part 0 hands qubits to part 1 and part 1 hands others back
    handoffs = causal_handoffs(q.benchmark_circuit("s"), REFERENCE_LABELS)
    assert len(handoffs) == 7
    assert not is_executable(handoffs)


@PROPERTY_SETTINGS
@given(
    circuit=circuits(max_qubits=6, max_gates=18),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_compare_output_is_deterministic(circuit, seed):
    assume(len(circuit.gates) >= 2)
    hg = q.circuit_to_hypergraph(circuit)
    assume(hg.num_nodes >= 2)

    def run():
        groups = q.block_partition(circuit, q.BaselineConfig(3))
        baseline_parts = q.remap_groups(circuit, groups)
        try:
            asg = q.partition(hg, q.SolverConfig(k=2, seed=seed))
        except q.SolverError:
            return None
        hg_parts = q.create_trimmed_partitions(circuit, asg)
        report = q.build_report(
            circuit, baseline_parts, hg_parts, heuristic_on=True, seed=seed
        )
        doc = q.report_to_dict(report)
        doc.pop("timings")
        return doc

    first, second = run(), run()
    assert first == second
