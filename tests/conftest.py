"""Shared fixtures: the 6-qubit benchmark circuit and its reference data."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import settings

import qcpart as q
from qcpart.rng import SplitMix64

# Reference 2-way label vector for the benchmark circuit (one label per gate).
REFERENCE_LABELS = (0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1)

# Reference block-baseline grouping as gate indices per partition.
BASELINE_GROUPS = [
    [0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 13],
    [7],
    [12, 15, 17, 19, 20],
    [1, 14],
    [16],
    [18, 21],
]

# Byte-exact raw-mode hypergraph file for the benchmark circuit.
GOLDEN_HGR = """16 22 1
4000 3
4000 5
4000 6
4000 8
4000 11
4000 13
4000 15
4000 17
4000 19
4000 22
400000 1 3 4 6 9 11 13 15 17
200000 5 7 11 19
200000 6 10 12 14
100000 2 15
300000 8 13 16 18 20 21 22
300000 3 5 8 17 19 22
1000
1000
200
1000
200
200
1000
200
1000
1000
200
1000
200
1000
200
1000
200
1000
200
1000
1000
200
"""

# Hypothesis settings of the randomized suites: at least 200 cases each.
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)

# Characters that `str.split()` reads as spaces and `str.splitlines()` as
# line ends; the text formats end a line only at LF, CR LF and CR.
SPACES_NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def edge_families(circuit: q.Circuit) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The members of a circuit's two hyperedge families, in the order
    `circuit_to_hypergraph` lists them: a singleton per multi-qubit gate, in
    gate order, then for each qubit with two or more gates, in qubit order,
    a chain of its gates, ascending."""
    gates = circuit.gates
    singletons = [(i,) for i, g in enumerate(gates) if g.kind.arity > 1]
    on_qubit = (tuple(i for i, g in enumerate(gates) if qubit in g.qubits)
                for qubit in range(circuit.num_qubits))
    return singletons, [chain for chain in on_qubit if len(chain) >= 2]


def digest(lines) -> str:
    """SHA-256 hex digest of the lines joined by newlines."""
    return hashlib.sha256("\n".join(map(str, lines)).encode()).hexdigest()


def brute_force_km1(hg: q.Hypergraph, labels) -> float:
    """Independent km1 oracle: enumerate each hyperedge's spanned parts."""
    total = 0.0
    for e in hg.hyperedges:
        spanned = set()
        for v in e.members:
            spanned.add(labels[v])
        total += e.weight * (len(spanned) - 1)
    return total


def random_h_cnot_circuit(rng: SplitMix64, num_qubits: int, num_gates: int) -> q.Circuit:
    """Each gate is H on a uniform qubit or CNOT on a uniform distinct pair, 50/50."""
    gates = []
    for _ in range(num_gates):
        if rng.next_below(2) == 0:
            gates.append(q.h(rng.next_below(num_qubits)))
        else:
            control = rng.next_below(num_qubits)
            target = rng.next_below(num_qubits - 1)
            gates.append(q.cnot(control, target + (target >= control)))
    return q.Circuit(num_qubits, tuple(gates))


def assert_hgr_round_trip(hg: q.Hypergraph) -> None:
    """read_hgr gives hg back from the raw and standard modes, and hg with
    normalized weights from the normalized one; it holds whenever every
    weight is integral, as under the default error model."""
    for mode in q.HgrMode:
        expected = q.normalize_weights(hg) if mode == q.HgrMode.PAPER_NORMALIZED else hg
        assert q.read_hgr(q.write_hgr(hg, mode)) == expected


@pytest.fixture
def circuit_s() -> q.Circuit:
    return q.benchmark_circuit("s")


@pytest.fixture
def hypergraph_s(circuit_s) -> q.Hypergraph:
    return q.circuit_to_hypergraph(circuit_s)


@pytest.fixture
def reference_assignment() -> q.PartitionAssignment:
    return q.PartitionAssignment(REFERENCE_LABELS, 2)


@pytest.fixture
def reference_partitions(circuit_s, reference_assignment) -> list[q.Partition]:
    return q.create_trimmed_partitions(circuit_s, reference_assignment)


@pytest.fixture
def baseline_partitions(circuit_s) -> list[q.Partition]:
    return q.remap_groups(circuit_s, BASELINE_GROUPS)
