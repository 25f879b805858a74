"""Labeled circuit -> trimmed partitions -> optional merge -> dependency DAG.

A partition is the source circuit's own ``Gate`` objects; it derives its
qubit map from them. Trimming, re-mapping and merging regroup gates and
copy none. The dependency DAG follows partition index order: an edge
i -> j for each pair i < j that shares a qubit, not gate causality.

Work over many partitions goes through one qubit -> holders index (the
ascending indices of the partitions whose qubit maps hold each global
qubit), read by merge, the dependency DAG and, in ``metrics``, the cut
qubits and the SWAP estimate, so nothing scans every partition pair:

- trimming buckets the gates by label in one pass, O(G);
- each merge pass counts, for each partition, the qubits it shares with
  every later one in a single ``Counter`` over the later holders of its
  qubits, O(sum over qubits of holders^2) instead of O(P^2) set
  intersections, and picks its partner in one loop over those counts;
- merged partitions are built once, after the last pass, from their
  members' gates in order;
- the dependency DAG is the one walk over intersecting pairs: each
  partition's edges come from the later holders of its qubits, at a cost
  that grows with the number of shared (pair, qubit) entries, not with P^2.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain

from .circuits import Circuit, ErrorModel, Gate, _check_int
from .hypergraph import Hypergraph, circuit_to_hypergraph
from .partitioner import PartitionAssignment, SolverConfig, partition as solve_partition

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Partition:
    """Global-indexed gates, in circuit order, and the sorted-contiguous
    {global qubit -> local index} map of the qubits they act on: the map
    iterates its globals ascending, and they get 0, 1, 2, ...
    """

    gates: tuple[Gate, ...]
    qubit_map: dict[int, int] = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        active = sorted({q for g in self.gates for q in g.qubits})
        object.__setattr__(self, "qubit_map", {q: i for i, q in enumerate(active)})

    @property
    def subcircuit(self) -> Circuit:
        """The gates on local qubit indices, built anew on each read."""
        m = self.qubit_map
        return Circuit(len(m), [Gate(g.kind, tuple([m[q] for q in g.qubits])) for g in self.gates])


@dataclass(frozen=True)
class DependencyDag:
    """Edge i -> j (i < j) per pair of partitions that share a qubit: edges
    follow partition index order, not the order the gates run in."""

    num_partitions: int
    edges: tuple[tuple[int, int, frozenset[int]], ...]

    def __post_init__(self):
        # stored as a tuple, so a DAG built from a list is a value too
        object.__setattr__(self, "edges", tuple(self.edges))
        for i, j, shared in self.edges:
            if not (0 <= i < j < self.num_partitions):
                raise ValueError(f"bad edge ({i}, {j})")
            if not shared:
                raise ValueError(f"edge ({i}, {j}) carries no shared qubits")

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def create_trimmed_partitions(
    circuit: Circuit, labels: PartitionAssignment | Sequence[int]
) -> list[Partition]:
    """Split a circuit by per-gate labels into local-indexed partitions.

    Partitions come out in ascending label order, gates in original order;
    labels are ints >= 0, and label ids with no gates are skipped with a warning.
    """
    label_seq = labels.labels if isinstance(labels, PartitionAssignment) else tuple(labels)
    if len(label_seq) != len(circuit.gates):
        raise ValueError(
            f"number of labels ({len(label_seq)}) does not match "
            f"number of gates ({len(circuit.gates)})"
        )
    if isinstance(labels, PartitionAssignment):
        for part_id in sorted(set(range(labels.k)).difference(label_seq)):
            logger.warning("partition %d is empty (no active qubits)", part_id)
    else:
        for label in label_seq:
            _check_int("label", label, 0)
    buckets: dict[int, list[Gate]] = {}
    for gate, label in zip(circuit.gates, label_seq):
        buckets.setdefault(label, []).append(gate)
    return [Partition(buckets[part_id]) for part_id in sorted(buckets)]


def _qubit_holders(qubit_sets: Iterable[Iterable[int]]) -> dict[int, list[int]]:
    """Global qubit -> ascending indices of the sets that hold it."""
    holders: dict[int, list[int]] = {}
    for i, qubits in enumerate(qubit_sets):
        for q in qubits:
            holders.setdefault(q, []).append(i)
    return holders


def merge_partitions(parts: Sequence[Partition], threshold: int) -> list[Partition]:
    """Multi-pass greedy merging of partitions sharing >= threshold qubits.

    Each pass scans in index order; every unconsumed partition merges with
    the later unconsumed partner sharing the most qubits (first maximum
    wins), provided the count meets the threshold. Passes repeat until one
    completes without a merge. A merged partition holds its first member's
    gates then its second's, over a unified contiguous qubit map.
    """
    _check_int("threshold", threshold, 1)
    # Each current partition is a list of input indices, whose gates it holds
    # in that order, plus the union of their qubits.
    members = [[i] for i in range(len(parts))]
    qubits = [set(p.qubit_map) for p in parts]
    merged = True
    while merged:
        merged = False
        holders = _qubit_holders(qubits)
        consumed = [False] * len(members)
        next_members: list[list[int]] = []
        next_qubits: list[set[int]] = []
        for i in range(len(members)):
            if consumed[i]:
                continue
            # later partition -> number of qubits it shares with i
            counts = Counter(
                chain.from_iterable(
                    held[bisect_right(held, i) :] for held in map(holders.__getitem__, qubits[i])
                )
            )
            # the most shared qubits, then the lowest index
            best_j, best = -1, 0
            for j, n in counts.items():
                if (n > best or (n == best and j < best_j)) and not consumed[j]:
                    best_j, best = j, n
            if best >= threshold:
                next_members.append(members[i] + members[best_j])
                next_qubits.append(qubits[i] | qubits[best_j])
                consumed[best_j] = True
                merged = True
            else:
                next_members.append(members[i])
                next_qubits.append(qubits[i])
        members, qubits = next_members, next_qubits
    return [Partition([g for idx in group for g in parts[idx].gates]) for group in members]


@dataclass(frozen=True)
class PipelineResult:
    """What `run_hypergraph_pipeline` built: the circuit's hypergraph, the
    solver's labels, the trimmed (and maybe merged) partitions and their
    dependency DAG."""

    hypergraph: Hypergraph
    assignment: PartitionAssignment
    partitions: tuple[Partition, ...]
    dag: DependencyDag


def run_hypergraph_pipeline(
    circuit: Circuit,
    k: int,
    model: ErrorModel | None = None,
    imbalance: float = 0.05,
    seed: int = 42,
    backend: str = "internal",
    merge_threshold: int | None = None,
) -> PipelineResult:
    """Full convert -> partition -> trim -> (merge) -> DAG pass.

    Merging runs only when merge_threshold is given; the default comparison
    path analyses the unmerged partitions.
    """
    model = model or ErrorModel()
    hg = circuit_to_hypergraph(circuit, model)
    config = SolverConfig(k=k, imbalance=imbalance, seed=seed, backend=backend)
    assignment = solve_partition(hg, config)
    parts = create_trimmed_partitions(circuit, assignment)
    if merge_threshold is not None:
        parts = merge_partitions(parts, merge_threshold)
    return PipelineResult(
        hypergraph=hg,
        assignment=assignment,
        partitions=tuple(parts),
        dag=build_dependency_graph(parts),
    )


def build_dependency_graph(parts: Sequence[Partition]) -> DependencyDag:
    """Edge i -> j, with the qubits i and j share, for every i < j whose
    qubit maps intersect, in lexicographic (i, j) order."""
    holders = _qubit_holders(p.qubit_map for p in parts)
    edges = []
    for i, part in enumerate(parts):
        # later partition j -> the qubits it shares with i
        shared: dict[int, list[int]] = {}
        for q in part.qubit_map:
            held = holders[q]
            for j in held[bisect_right(held, i) :]:
                shared.setdefault(j, []).append(q)
        edges += [(i, j, frozenset(shared[j])) for j in sorted(shared)]
    return DependencyDag(len(parts), tuple(edges))
