"""Output checks and per-instance quality figures.

Every check recomputes what it can without trusting the code under test:
km1 is recounted from the parts' side, feasibility comes from the exact
oracle, and the stand-in solver's labels are rederived from the weights.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import standin_solver


def recount_km1(hg, labels, k: int) -> float:
    """km1 counted part by part: how many parts touch each hyperedge.

    The per-edge terms are summed in edge order, as ``qcpart.km1`` sums
    them, so the two agree bit for bit when they agree at all.
    """
    incident: list[list[int]] = [[] for _ in range(hg.num_nodes)]
    for ei, edge in enumerate(hg.hyperedges):
        for v in edge.members:
            incident[v].append(ei)
    nodes_of: list[list[int]] = [[] for _ in range(k)]
    for v, label in enumerate(labels):
        nodes_of[label].append(v)
    touched = [0] * len(hg.hyperedges)
    last_part = [-1] * len(hg.hyperedges)
    for part, nodes in enumerate(nodes_of):
        for v in nodes:
            for ei in incident[v]:
                if last_part[ei] != part:
                    last_part[ei] = part
                    touched[ei] += 1
    total = 0.0
    for edge, parts in zip(hg.hyperedges, touched):
        total += edge.weight * (parts - 1)
    return total


def _method_summary(m) -> tuple:
    return (m.num_partitions, m.cut_qubits, m.swaps.total, m.swaps.waived,
            repr(m.total_fidelity), m.max_depth, m.gate_counts_valid)


def digest(outcome) -> str:
    """Hash of everything an instance outputs: labels, parts, DAG, report."""
    if outcome.error is not None:
        payload = ("error", outcome.error)
    else:
        res = outcome.result
        payload = (
            res.assignment.labels,
            [(sorted(p.qubit_map.items()), len(p.subcircuit.gates)) for p in res.partitions],
            [(i, j, sorted(shared)) for i, j, shared in res.dag.edges],
            None if outcome.report is None else
            (_method_summary(outcome.report.baseline), _method_summary(outcome.report.hypergraph)),
        )
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def check(q, inst, outcome, feasible: bool, report) -> list[str]:
    """Problems with one instance's output; empty when every check holds.

    ``report`` is the comparison for this output (the instance's own, or one
    built after it for workloads whose instance stops at the pipeline).
    A SolverError is not a problem here: whether it was justified is decided
    by the oracle and counted as a quality figure.
    """
    if outcome.error is not None:
        return [outcome.error] if outcome.unexpected else []
    res = outcome.result
    labels = res.assignment.labels
    problems = []
    if len(labels) != inst.gates or not all(0 <= label < inst.k for label in labels):
        problems.append("a label lies outside [0, k) or the label count is wrong")
    if not q.check_balance(res.hypergraph, res.assignment, inst.imbalance):
        problems.append("check_balance fails")
    if not feasible:
        problems.append("solved an instance the oracle proves infeasible")
    if recount_km1(res.hypergraph, labels, inst.k) != q.km1(res.hypergraph, res.assignment):
        problems.append("recounted km1 differs from qcpart.km1")
    if not (report.baseline.gate_counts_valid and report.hypergraph.gate_counts_valid):
        problems.append("validate_gate_counts fails")
    if inst.external:
        weights = [int(round(w)) for w in res.hypergraph.node_weights]
        if list(labels) != standin_solver.chunk_labels(weights, inst.k):
            problems.append("labels are not the stand-in solver's chunks")
    return problems


@dataclass
class Quality:
    solved: bool
    rejected: bool  # SolverError on an oracle-feasible instance
    km1: float = 0.0
    km1_random: float = 0.0
    log_fidelity_gain: float = 0.0  # ln F_hypergraph - ln F_baseline, whole circuit
    max_load_ratio: float = 0.0
    pins: int = 0
    parts_trimmed: int = 0
    parts: int = 0
    dag_edges: int = 0
    blocks: int = 0
    swap_total: int = 0
    cut_qubits: int = 0


def _log_fidelity(method) -> float:
    """ln of the method's total_fidelity, summed per part.

    The product total_fidelity underflows to 0.0 for the block baseline of
    a 4000-gate circuit; the per-part logs do not.
    """
    return math.fsum(math.log(row.fidelity) for row in method.partitions)


def quality(q, inst, outcome, feasible: bool, report) -> Quality:
    if outcome.error is not None:
        return Quality(solved=False, rejected=feasible)
    res = outcome.result
    hg, assignment = res.hypergraph, res.assignment
    loads = [0.0] * inst.k
    for v, label in enumerate(assignment.labels):
        loads[label] += hg.node_weights[v]
    cap = (1.0 + inst.imbalance) * math.ceil(sum(hg.node_weights) / inst.k)
    gain = _log_fidelity(report.hypergraph) - _log_fidelity(report.baseline)
    return Quality(
        solved=True,
        rejected=False,
        km1=q.km1(hg, assignment),
        km1_random=q.km1(hg, q.random_balanced_assignment(hg, inst.k, inst.seed)),
        log_fidelity_gain=gain,
        max_load_ratio=max(loads) / cap,
        pins=sum(len(e.members) for e in hg.hyperedges),
        parts_trimmed=len(set(assignment.labels)),  # one trimmed part per used label
        parts=len(res.partitions),
        dag_edges=res.dag.num_edges,
        blocks=report.baseline.num_partitions,
        swap_total=report.hypergraph.swaps.total,
        cut_qubits=len(report.hypergraph.cut_qubits),
    )
