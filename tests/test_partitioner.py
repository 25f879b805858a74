import importlib.util
import math
from fractions import Fraction
import os
from pathlib import Path
import signal
import stat
import subprocess
import textwrap
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qcpart as q
from qcpart import partitioner as qp
from qcpart.hypergraph import scaled_weights
from qcpart.rng import SplitMix64

from conftest import brute_force_km1, digest, random_h_cnot_circuit


class TestDynamicK:
    def test_floor_of_two(self):
        assert q.dynamic_k(3, 100, 4) == 2

    def test_sqrt_cap(self):
        assert q.dynamic_k(1000, 9, 1) == 3

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            q.dynamic_k(10, 4, 0)
        with pytest.raises(ValueError):
            q.dynamic_k(10, 0, 4)
        # each of these used to return 2
        with pytest.raises(ValueError, match=r"^num_ops must be an integer >= 0, got -5$"):
            q.dynamic_k(-5, 4, 2)
        with pytest.raises(ValueError, match=r"^num_qubits must be an integer >= 1, got True$"):
            q.dynamic_k(10, True, 2)

    @pytest.mark.parametrize("block_size", [0, 2.5, 2.0, True])
    def test_block_size_must_be_an_integer(self, block_size):
        # 10 // 2.5 is 4.0, which SolverConfig would then reject as k
        with pytest.raises(ValueError) as excinfo:
            q.dynamic_k(10, 100, block_size)
        assert str(excinfo.value) == f"block_size must be an integer >= 1, got {block_size!r}"


class TestKm1:
    def test_matches_oracle_on_reference_labels(self, hypergraph_s, reference_assignment):
        norm = q.normalize_weights(hypergraph_s)
        expected = brute_force_km1(norm, reference_assignment.labels)
        assert q.km1(norm, reference_assignment) == expected == 1_500_000.0

    def test_uncut_is_zero(self, hypergraph_s):
        flat = q.PartitionAssignment((0,) * hypergraph_s.num_nodes, 1)
        assert q.km1(hypergraph_s, flat) == 0.0

    def test_relabeling_invariance(self, hypergraph_s, reference_assignment):
        swapped = q.PartitionAssignment(
            tuple(1 - l for l in reference_assignment.labels), 2
        )
        assert q.km1(hypergraph_s, swapped) == q.km1(hypergraph_s, reference_assignment)

    def test_length_mismatch(self, hypergraph_s):
        with pytest.raises(ValueError):
            q.km1(hypergraph_s, q.PartitionAssignment((0,), 1))


class TestBalance:
    def test_reference_labels_exceed_cap(self, hypergraph_s, reference_assignment):
        # Node-weight split is 8600/5400 against a cap of 1.05 * 7000 = 7350.
        norm = q.normalize_weights(hypergraph_s)
        assert q.check_balance(norm, reference_assignment, 0.05) is False
        assert q.check_balance(norm, reference_assignment, 0.23) is True

    def test_unit_weights(self):
        hg = q.Hypergraph(4, (1.0,) * 4, ())
        even = q.PartitionAssignment((0, 0, 1, 1), 2)
        lopsided = q.PartitionAssignment((0, 0, 0, 1), 2)
        assert q.check_balance(hg, even, 0.0) is True
        assert q.check_balance(hg, lopsided, 0.0) is False

    def test_part_weights_are_summed_exactly(self):
        # Left to right, part 0 sums to 336.23333333333335, one step above the
        # exact sum's rounding 336.2333333333333, which is the cap here.
        part = [333.3333333333333, 0.3, 2.5, 0.1]
        hg = q.Hypergraph(5, (*part, 335.0), ())
        imbalance = math.fsum(part) / 336 - 1  # ceil(total / 2) is 336
        assert qp.balance_cap(hg, 2, imbalance) == math.fsum(part) == 336.2333333333333
        assert sum(part) == 336.23333333333335
        assert q.check_balance(hg, q.PartitionAssignment((0, 0, 0, 0, 1), 2), imbalance)

    @pytest.mark.parametrize("imbalance", [float("nan"), -1.0, "x", None, True, float("inf")])
    def test_bad_imbalance_rejected_by_check_balance(self, imbalance, hypergraph_s):
        # nan and -1.0 used to return False, read as unbalanced, and "x" to
        # raise a bare TypeError
        asg = q.PartitionAssignment((0, 1) * 11, 2)
        with pytest.raises(ValueError) as excinfo:
            q.check_balance(hypergraph_s, asg, imbalance)
        assert str(excinfo.value) == "imbalance must be a finite number >= 0"

    @pytest.mark.parametrize("num_labels", [2, 24], ids=["short", "long"])
    def test_assignment_of_wrong_length_rejected_by_check_balance(self, num_labels, hypergraph_s):
        # 2 labels used to return True from two nodes' weights, and 24 to
        # raise a bare IndexError; km1 already rejected both
        asg = q.PartitionAssignment((0, 1) * (num_labels // 2), 2)
        with pytest.raises(ValueError, match="^assignment does not match hypergraph$"):
            q.check_balance(hypergraph_s, asg, 0.05)
        with pytest.raises(ValueError, match="^assignment does not match hypergraph$"):
            q.km1(hypergraph_s, asg)

    @pytest.mark.parametrize("labels, message", [
        ((0.5, 0.5), "label 0.5 outside [0, 2)"),
        ((0, True), "label True outside [0, 2)"),
        ((0, 1.0), "label 1.0 outside [0, 2)"),
        ((0, 2), "label 2 outside [0, 2)"),
    ], ids=["half", "bool", "float", "out-of-range"])
    def test_assignment_labels_must_be_ints_in_range(self, labels, message):
        # (0.5, 0.5) used to construct, and check_balance then raised TypeError
        with pytest.raises(ValueError) as excinfo:
            q.PartitionAssignment(labels, 2)
        assert str(excinfo.value) == message

    def test_random_balanced_assignment_unit_weights(self):
        hg = q.Hypergraph(9, (1.0,) * 9, ())
        asg = q.random_balanced_assignment(hg, 3, seed=5)
        counts = [asg.labels.count(i) for i in range(3)]
        assert counts == [3, 3, 3]

    @pytest.mark.parametrize("backend, text", [
        (q.INTERNAL, "internal solver labels are unbalanced: part 1 weighs 3, over the cap 2"),
        ("solver", "external solver labels are unbalanced: part 1 weighs 3, over the cap 2"),
    ], ids=["internal", "external"])
    def test_one_balance_check_for_both_backends(self, backend, text):
        hg = q.Hypergraph(4, (1.0,) * 4, ())
        with pytest.raises(q.SolverError) as excinfo:
            qp._checked(hg, [0, 1, 1, 1], q.SolverConfig(k=2, imbalance=0.0, backend=backend))
        assert str(excinfo.value) == text
        assert qp._checked(hg, [0, 1, 1, 0], q.SolverConfig(k=2, backend=backend)).labels == (0, 1, 1, 0)

    @pytest.mark.parametrize("k", [0, -1, True, 2.0])
    def test_random_balanced_assignment_rejects_a_bad_k(self, k):
        with pytest.raises(ValueError, match=f"k must be an integer >= 1, got {k!r}"):
            q.random_balanced_assignment(q.Hypergraph(4, (1.0,) * 4, ()), k, seed=5)


def load_oracle():
    """The benchmark's exact feasibility oracle, imported from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestInternalSolver:
    def test_deterministic(self, hypergraph_s):
        a = q.partition(hypergraph_s, q.SolverConfig(k=2, seed=42))
        b = q.partition(hypergraph_s, q.SolverConfig(k=2, seed=42))
        assert a.labels == b.labels

    def test_feasible_rejections_do_not_grow(self):
        # A ratchet: the solver still raises SolverError on 51 of the paper
        # grid's 168 feasible instances here. A change may lower the bound,
        # never raise it; a solver that rejects only infeasible instances
        # takes it to 0.
        oracle = load_oracle()
        feasible = rejected = 0
        for name in ("s", "m", "l"):
            hg = q.circuit_to_hypergraph(q.benchmark_circuit(name))
            for k in (2, 3, 4, 6, 8):
                for imbalance in (0.03, 0.05, 0.1):
                    if not oracle.feasible(hg.node_weights, k, imbalance):
                        continue
                    for seed in range(4):
                        feasible += 1
                        try:
                            q.partition(hg, q.SolverConfig(k=k, imbalance=imbalance, seed=seed))
                        except q.SolverError:
                            rejected += 1
        assert feasible == 168
        assert rejected <= 51

    def test_k_exceeding_nodes_rejected(self):
        hg = q.Hypergraph(2, (1.0, 1.0), ())
        with pytest.raises(q.SolverError):
            q.partition(hg, q.SolverConfig(k=3))

    def test_k_one(self, hypergraph_s):
        # k = 1 labels every node 0; the cap (1 + eps) * ceil(total) holds
        # the total even at eps = 0, and for node weights that are not
        # integral.
        edgeless = q.Hypergraph(3, (1 / 0.003, 1 / 0.05, 0.1), ())
        for hg in (hypergraph_s, edgeless):
            for imbalance in (0.05, 0.0):
                asg = q.partition(hg, q.SolverConfig(k=1, imbalance=imbalance))
                assert asg.labels == (0,) * hg.num_nodes

    def test_k_one_builds_no_sub_problem(self, monkeypatch):
        mapped = []
        real = qp._mapped
        monkeypatch.setattr(qp, "_mapped", lambda *args: mapped.append(args) or real(*args))
        hg = q.circuit_to_hypergraph(q.benchmark_circuit("l"))
        assert q.partition(hg, q.SolverConfig(k=1)).labels == (0,) * hg.num_nodes
        assert mapped == []

    @pytest.mark.parametrize("imbalance", [-0.1, float("nan"), float("inf"), float("-inf"),
                                           True, False, "0.1", None])
    def test_bad_imbalance_rejected(self, imbalance):
        with pytest.raises(ValueError, match="imbalance must be a finite number >= 0"):
            q.SolverConfig(k=2, imbalance=imbalance)

    @pytest.mark.parametrize(
        "field, value",
        [("k", 2.0), ("k", 3.0), ("k", True), ("k", "2"), ("k", 0),
         ("seed", 1.5), ("seed", False), ("seed", None)],
    )
    def test_non_integer_k_or_seed_rejected(self, field, value):
        # the rule Circuit applies to qubit counts: an int, but not a bool
        rule = "an integer >= 1" if field == "k" else "an integer"
        with pytest.raises(ValueError) as excinfo:
            q.SolverConfig(**{"k": 2, field: value})
        assert str(excinfo.value) == f"{field} must be {rule}, got {value!r}"

    def test_multiway(self):
        c = q.benchmark_circuit("l")
        hg = q.circuit_to_hypergraph(c)
        asg = q.partition(hg, q.SolverConfig(k=4, seed=42))
        assert asg.k == 4
        assert len(set(asg.labels)) == 4
        assert q.check_balance(q.normalize_weights(hg), asg, 0.05)

    def test_empty_side_is_balanced(self):
        # At eps = 1.0 the k=2 cap is the whole weight, so the uncut split fits.
        hg = q.circuit_to_hypergraph(q.benchmark_circuit("s"))
        asg = q.partition(hg, q.SolverConfig(k=2, imbalance=1.0, seed=0))
        assert asg.labels == (0,) * hg.num_nodes
        assert q.km1(q.normalize_weights(hg), asg) == 0.0

    def test_empty_side_leaves_its_parts_empty(self):
        hg = q.circuit_to_hypergraph(q.benchmark_circuit("s"))
        asg = q.partition(hg, q.SolverConfig(k=3, imbalance=0.5, seed=0))
        assert len(set(asg.labels)) == 2
        assert q.check_balance(q.normalize_weights(hg), asg, 0.5)

    def test_zero_weight_edges_reach_the_solver(self, monkeypatch):
        # Every node has four incident edges, all of weight 0, so coarsening
        # rates each neighbour 0.0 and still matches it.
        members = [tuple(sorted((v, (v + d) % 12))) for v in range(12) for d in (1, 2)]
        text = f"{len(members)} 12 11\n" + "".join(
            f"0 {a + 1} {b + 1}\n" for a, b in members) + "1\n" * 12
        direct = q.Hypergraph(12, (1.0,) * 12, tuple(q.Hyperedge(m, 0.0) for m in members))
        # no weight to scale against: every edge scales to the int 0
        assert [(type(w), w) for w in scaled_weights(direct)] == [(int, 0)] * len(members)
        coarse = []  # each coarsening round's result
        contract = qp._contract

        def logged_contract(*args):
            coarse.append(contract(*args))
            return coarse[-1]

        monkeypatch.setattr(qp, "_contract", logged_contract)
        config = q.SolverConfig(k=2, seed=3)
        asg = q.partition(q.read_hgr(text), config)
        assert coarse and coarse[0] is not None
        assert all(w == 0 for level in coarse if level for w, _ in level.edges)
        assert q.partition(direct, config) == asg
        assert q.check_balance(direct, asg, config.imbalance) and q.km1(direct, asg) == 0

    def test_refined_random_candidate_wins_at_k2(self):
        # The top bisection cuts 5.8e6 here; the refined random balanced
        # assignment on the same instance cuts 5.4e6 and replaces it.
        hg = q.normalize_weights(q.circuit_to_hypergraph(q.benchmark_circuit("m")))
        config = q.SolverConfig(k=2, imbalance=0.1, seed=2)
        top, candidate = _k2_candidates(hg, config)
        assert top.cut == brute_force_km1(hg, top.side) == 5_800_000.0
        asg = q.partition(hg, config)
        assert asg.labels == tuple(candidate)
        assert q.km1(hg, asg) == brute_force_km1(hg, candidate) == 5_400_000.0

    def test_tied_random_candidate_loses_at_k2(self):
        hg = q.normalize_weights(q.circuit_to_hypergraph(q.benchmark_circuit("s")))
        config = q.SolverConfig(k=2, imbalance=0.05, seed=8)
        top, candidate = _k2_candidates(hg, config)
        assert top.cut == brute_force_km1(hg, candidate) == 1_750_000.0
        assert candidate != top.side
        assert q.partition(hg, config).labels == tuple(top.side)


def _reference_induce(hg: q.Hypergraph, nodes: list[int], cap0: float, cap1: float):
    """The sub-problem over `nodes`, in their order, from hg's edges as they
    are: each edge's members among them, deduplicated and ascending, kept
    when two or more remain."""
    index = {v: i for i, v in enumerate(nodes)}
    edges = []
    for e in hg.hyperedges:
        members = tuple(sorted({index[v] for v in e.members if v in index}))
        if len(members) >= 2:
            edges.append((e.weight, members))
    return qp._Instance([hg.node_weights[v] for v in nodes], edges, cap0, cap1)


def _k2_candidates(hg: q.Hypergraph, config: q.SolverConfig):
    """The top bisection of a k=2 solve and the sides of its refined random candidate."""
    cap = min(qp.balance_cap(hg, 2, config.imbalance), sum(hg.node_weights))
    inst = _reference_induce(hg, list(range(hg.num_nodes)), cap0=cap, cap1=cap)
    top = qp._solve_bisection(inst, SplitMix64(config.seed))
    candidate = list(q.random_balanced_assignment(hg, 2, config.seed).labels)
    _reference_refine(inst, candidate)
    return top, candidate


def _outcome(hg: q.Hypergraph, config: q.SolverConfig) -> str:
    """The labels of one solve, or the SolverError text it raised."""
    try:
        return ",".join(map(str, q.partition(hg, config).labels))
    except q.SolverError as exc:
        return f"SolverError: {exc}"


class TestGoldenLabels:
    """Labels (or failure messages) pinned by SHA-256 digest.

    The digests were recorded from the solver that evaluated every move gain
    from scratch; any change to the internal solver's labels or to its
    SolverError messages changes them. The paper set has 135 solves, 40 of
    which raise SolverError; the random set has 16, one of which raises.
    """

    PAPER_DIGEST = "c9cb81f61611c084d78ba0e114faa8ba697ec86f5cb15b89fc71a4908d24530d"
    RANDOM_DIGEST = "3b291c0e93dd4bbb03fae1e1bcd1e503e66686e85be3ca0487201c0d1ee06d0c"

    def test_paper_circuits(self):
        lines = []
        for name in ("s", "m", "l"):
            hg = q.circuit_to_hypergraph(q.benchmark_circuit(name))
            for k in (2, 3, 4, 6, 8):
                for eps in (0.03, 0.05, 0.1):
                    for seed in (0, 1, 42):
                        config = q.SolverConfig(k=k, imbalance=eps, seed=seed)
                        lines.append(f"{name} k={k} eps={eps} seed={seed} {_outcome(hg, config)}")
        assert digest(lines) == self.PAPER_DIGEST

    def test_random_circuits(self):
        rng = SplitMix64(2506)
        lines = []
        for i in range(8):
            hg = q.circuit_to_hypergraph(random_h_cnot_circuit(rng, 16, 200))
            for k in (2, 4):
                config = q.SolverConfig(k=k, imbalance=0.1, seed=i)
                lines.append(f"circuit {i} k={k} {_outcome(hg, config)}")
        assert digest(lines) == self.RANDOM_DIGEST


def _compose(clusters, fine_to_coarse):
    """Each coarse cluster's original nodes, in fine-cluster order."""
    coarse = [[] for _ in range(max(fine_to_coarse) + 1)]
    for v, cid in enumerate(fine_to_coarse):
        coarse[cid].extend(clusters[v])
    return coarse


def _hierarchy_lines(label: str, hg: q.Hypergraph, k: int, eps: float, seed: int, tight: bool):
    """Every coarsening level of the top bisection, as `_solve_bisection` builds it.

    `tight` caps clusters at the heaviest plus the lightest node weight
    instead, so most merges are blocked and some fit the cap exactly.
    """
    hg = q.normalize_weights(hg)
    cap = qp.balance_cap(hg, k, eps)
    k0 = (k + 1) // 2
    inst = _reference_induce(hg, list(range(hg.num_nodes)), cap0=k0 * cap, cap1=(k - k0) * cap)
    total = sum(inst.weights)
    inst.cap0, inst.cap1 = min(inst.cap0, total), min(inst.cap1, total)
    max_cluster = max(inst.cap0, inst.cap1) / 2.0
    if tight:
        max_cluster = max(inst.weights) + min(inst.weights)
    rng = SplitMix64(seed)
    levels = [inst]
    clusters = [[v] for v in range(hg.num_nodes)]  # original node ids per cluster
    while len(levels[-1].weights) > 8:
        coarser = qp._contract(levels[-1], rng, max_cluster)
        if coarser is None:
            yield f"{label} k={k} eps={eps} seed={seed} tight={tight} stop state={rng.state}"
            return
        levels.append(coarser)
        clusters = _compose(clusters, coarser.fine_to_coarse)
        yield (
            f"{label} k={k} eps={eps} seed={seed} tight={tight} level={len(levels) - 1}"
            f" n={len(clusters)} clusters={clusters}"
            f" weights={coarser.weights} edges={coarser.edges}"
            f" caps={coarser.cap0},{coarser.cap1} state={rng.state}"
        )


class TestCoarseningHierarchy:
    """The coarsening hierarchy and RNG state pinned by SHA-256 digest.

    Per level: cluster count, clusters, weights, edges and `rng.state` after
    each `_contract`. The digest was recorded from the contraction that
    summed ratings in a pair dictionary over every hyperedge's member pairs.
    """

    DIGEST = "c063ac2fa7c5fd877bba21935592bf2220e4ca61bd249c52459ab2df7dc38aa7"

    def test_hierarchy(self):
        circuits = [(name, q.benchmark_circuit(name)) for name in ("s", "m", "l")]
        rng = SplitMix64(777)
        circuits += [(f"16q/200g #{i}", random_h_cnot_circuit(rng, 16, 200)) for i in range(4)]
        circuits += [(f"32q/400g #{i}", random_h_cnot_circuit(rng, 32, 400)) for i in range(2)]
        lines = []
        for label, circuit in circuits:
            hg = q.circuit_to_hypergraph(circuit)
            for k, eps in ((2, 0.1), (2, 0.03), (4, 0.1), (8, 0.05)):
                for seed in (0, 1, 42):
                    for tight in (False, True):
                        lines.extend(_hierarchy_lines(label, hg, k, eps, seed, tight))
        assert len(lines) > 200
        assert digest(lines) == self.DIGEST


# From-scratch reference versions of the internal solver's refinement and
# balance repair: every gain is re-evaluated over the cluster's edges. Loads
# start from int 0, so int weights sum exactly.


def _reference_move_gain(inst, side, incident, v):
    gain = 0.0
    for ei in incident.get(v, ()):
        w, members = inst.edges[ei]
        same = other = 0
        for u in members:
            if u == v:
                continue
            if side[u] == side[v]:
                same += 1
            else:
                other += 1
        if other == 0 and same > 0:
            gain -= w  # move would newly cut this edge
        elif same == 0 and other > 0:
            gain += w  # move would uncut it
    return gain


def _reference_loads(inst, side):
    loads = [0, 0]
    for v, s in enumerate(side):
        loads[s] += inst.weights[v]
    return loads


def _reference_feasible(inst, side):
    loads = _reference_loads(inst, side)
    return loads[0] <= inst.cap0 and loads[1] <= inst.cap1


def _reference_cost(inst, side):
    return sum(w for w, members in inst.edges if len({side[v] for v in members}) > 1)


def _reference_incidence(inst):
    incident = {}
    for ei, (_, members) in enumerate(inst.edges):
        for v in members:
            incident.setdefault(v, []).append(ei)
    return incident


def _reference_refine(inst, side):
    incident = _reference_incidence(inst)
    caps = (inst.cap0, inst.cap1)
    slack = max(inst.weights, default=0.0)

    improved = True
    while improved:
        improved = False
        loads = [0, 0]
        for v, s in enumerate(side):
            loads[s] += inst.weights[v]
        locked = [False] * len(side)
        moves = []
        running = 0.0
        best_running, best_prefix = 0.0, 0
        for _ in range(len(side)):
            best_v, best_gain = -1, -math.inf
            for v in range(len(side)):
                if locked[v]:
                    continue
                target = 1 - side[v]
                if loads[target] + inst.weights[v] > caps[target] + slack:
                    continue
                gain = _reference_move_gain(inst, side, incident, v)
                if gain > best_gain:
                    best_v, best_gain = v, gain
            if best_v < 0:
                break
            loads[side[best_v]] -= inst.weights[best_v]
            side[best_v] = 1 - side[best_v]
            loads[side[best_v]] += inst.weights[best_v]
            locked[best_v] = True
            moves.append(best_v)
            running += best_gain
            feasible = loads[0] <= caps[0] and loads[1] <= caps[1]
            if feasible and running > best_running:
                best_running, best_prefix = running, len(moves)
        for v in moves[best_prefix:]:
            side[v] = 1 - side[v]
        if best_running > 0:
            improved = True


def _reference_repair_balance(inst, side):
    incident = _reference_incidence(inst)
    loads = [0, 0]
    for v, s in enumerate(side):
        loads[s] += inst.weights[v]
    caps = (inst.cap0, inst.cap1)
    for _ in range(len(side)):
        over = next((s for s in (0, 1) if loads[s] > caps[s]), None)
        if over is None:
            return True
        candidates = [v for v in range(len(side)) if side[v] == over]
        candidates.sort(key=lambda v: (-_reference_move_gain(inst, side, incident, v), v))
        moved = False
        for v in candidates:
            target = 1 - over
            if loads[target] + inst.weights[v] <= caps[target]:
                loads[over] -= inst.weights[v]
                side[v] = target
                loads[target] += inst.weights[v]
                moved = True
                break
        if not moved:
            return False
    return loads[0] <= caps[0] and loads[1] <= caps[1]


def _integral_edges(draw, n, max_weight=50):
    """Up to 3n edges of 2-6 distinct pins over n clusters, int weights from
    0, whose zero shares contraction must still rate."""
    return [
        (w, tuple(sorted(members)))
        for w, members in draw(
            st.lists(
                st.tuples(
                    st.integers(0, max_weight),
                    st.lists(st.integers(0, n - 1), min_size=2, max_size=min(n, 6), unique=True),
                ),
                max_size=3 * n,
            )
        )
    ]


@st.composite
def bisection_starts(draw, max_edge_weight=50, equal_caps=False):
    """A small instance with int weights and a start that may overload a side."""
    n = draw(st.integers(min_value=2, max_value=30))
    weights = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    edges = _integral_edges(draw, n, max_edge_weight)
    side = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    loads = [sum(w for w, s in zip(weights, side) if s == t) for t in (0, 1)]
    total = sum(weights)
    if draw(st.booleans()):  # feasible start
        caps = [loads[t] + draw(st.integers(0, total)) for t in (0, 1)]
    else:  # caps independent of the start, usually overloading a side
        caps = [draw(st.integers(0, total)) for _ in (0, 1)]
    if equal_caps:  # the larger cap keeps a feasible start feasible
        caps = [max(caps)] * 2
    inst = qp._Instance(weights, edges, caps[0], caps[1])
    return inst, side


class TestCachedGainsMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(start=bisection_starts(), moves=st.lists(st.integers(0, 29), max_size=40))
    def test_bisection_tracks_moves(self, start, moves):
        # Balance repair moves with `move`; `_refine` applies the same
        # deltas inline, which test_refine_leaves_a_recounted_state checks.
        inst, side = start
        bis = qp._Bisection(inst, side)
        incident = _reference_incidence(inst)
        assert inst.below == -1 - sum(w for w, _ in inst.edges)

        def assert_matches_scratch():
            expected = [_reference_move_gain(inst, side, incident, u) for u in range(len(side))]
            assert bis.gains == expected
            assert bis.counts == tuple(
                [sum(1 for u in m if side[u] == t) for _, m in inst.edges] for t in (0, 1)
            )
            assert bis.loads == _reference_loads(inst, side)
            assert bis.cut == _reference_cost(inst, side)
            # the scan's bounds: below every gain, and minus that above it
            assert inst.below < min(bis.gains) and max(bis.gains) < -inst.below

        for v in [m % len(side) for m in moves]:
            assert_matches_scratch()
            bis.move(v)
        assert_matches_scratch()
        bis.recount()
        assert_matches_scratch()

    def test_gain_cache_delta_cases(self):
        # Moving the four pins of edge 0 one by one from side 0 to side 1
        # meets cd = 0, 1 and cs = 2, 1; the two-pin edges meet cd = 0 with
        # cs = 2 (both pins together) and cd = 1 with cs = 1 (split pins).
        edges = [(3, (0, 1, 2, 3)), (5, (0, 4)), (7, (1, 5)), (2, (2, 3, 4, 5))]
        inst = qp._Instance([1] * 6, edges, 6, 6)
        side = [0, 0, 0, 0, 0, 1]
        cache = qp._Bisection(inst, side)
        incident = _reference_incidence(inst)
        seen = set()
        for v in (0, 1, 2, 3):
            for ei in inst.incident[v]:
                cs, cd = cache.counts[side[v]][ei], cache.counts[1 - side[v]][ei]
                seen.add((len(inst.edges[ei][1]), cs, cd))
            cache.move(v)
            assert cache.gains == [
                _reference_move_gain(inst, side, incident, u) for u in range(6)
            ]
        cs_cd = {(cs, cd) for _, cs, cd in seen}
        assert {cd for _, cd in cs_cd} >= {0, 1} and {cs for cs, _ in cs_cd} >= {1, 2}
        assert (2, 2, 0) in seen and (2, 1, 1) in seen

    @settings(max_examples=200, deadline=None)
    @given(start=bisection_starts())
    def test_refine_matches_reference(self, start):
        inst, side = start
        cached, reference = list(side), list(side)
        qp._refine(qp._Bisection(inst, cached))
        _reference_refine(inst, reference)
        assert cached == reference

    @settings(max_examples=200, deadline=None)
    @given(start=bisection_starts())
    def test_repair_balance_matches_reference(self, start):
        inst, side = start
        cached, reference = list(side), list(side)
        repaired = qp._repair_balance(qp._Bisection(inst, cached))
        assert repaired == _reference_repair_balance(inst, reference)
        assert cached == reference


# Node weights whose float sums depend on the order they are added in.
FRACTIONAL_WEIGHTS = [i / 3 for i in range(1, 13)] + [1 / 0.003]


def _in_one_unit(weights, caps):
    """Weights and caps as ints in units of 1/u, u the largest denominator
    of a weight (a power of two), the caps floored, as `partition` hands
    them to the solver."""
    unit = max(Fraction(w).denominator for w in weights)
    return ([int(Fraction(w) * unit) for w in weights],
            [math.floor(Fraction(c) * unit) for c in caps])


@st.composite
def fractional_starts(draw):
    """A small instance whose node weights were not integral before they were
    put in one unit (large ints for most draws), sometimes without edges, and
    a start that may overload a side."""
    n = draw(st.integers(min_value=1, max_value=25))
    weights = draw(
        st.lists(st.sampled_from([1 / 0.003, 1 / 0.05, 0.1, 0.7, 2.5, 1.0, 3.0]),
                 min_size=n, max_size=n)
    )
    edgeless = n < 2 or draw(st.integers(0, 3)) == 0
    edges = [] if edgeless else _integral_edges(draw, n)
    side = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    caps = [sum(weights) * draw(st.integers(30, 110)) / 100 for _ in (0, 1)]
    weights, caps = _in_one_unit(weights, caps)
    return qp._Instance(weights, edges, caps[0], caps[1]), side


def _assert_state_is_recount(bis):
    """Every field of `bis`, the loads included, equals a fresh recount of
    its sides."""
    fresh = qp._Bisection(bis.inst, list(bis.side))
    assert bis.loads == fresh.loads
    assert bis.cut == fresh.cut
    assert bis.counts == fresh.counts
    assert bis.gains == fresh.gains


class _LoggedSides(list):
    """Sides that call `record(v, self)` after each write to a cluster v's
    side: every move, in `_refine` or by `_Bisection.move`, and every flip
    back of a rolled-back FM pass."""

    def __init__(self, side, record):
        super().__init__(side)
        self.record = record

    def __setitem__(self, v, s):
        super().__setitem__(v, s)
        self.record(v, self)


class _TracedBisection(qp._Bisection):
    """A `_Bisection` that logs each recount, and each write to its sides
    with the sides it leaves."""

    __slots__ = ("log",)

    def __init__(self, inst, side):
        self.log = []
        super().__init__(
            inst, _LoggedSides(side, lambda v, s: self.log.append(("set", v, list(s)))))

    def recount(self):
        self.log.append(("recount",))
        super().recount()


class TestBisectionState:
    """The delta-updated state, and the state a rolled-back FM pass leaves
    by flipping the sides after its best prefix back and putting back the
    copy it took there, equal a recount exactly."""

    @settings(max_examples=200, deadline=None)
    @given(start=st.one_of(fractional_starts(), bisection_starts()))
    def test_refine_leaves_a_recounted_state(self, start):
        inst, side = start
        bis = qp._Bisection(inst, side)
        qp._refine(bis)
        _assert_state_is_recount(bis)

    @settings(max_examples=200, deadline=None)
    @given(start=st.one_of(fractional_starts(), bisection_starts()))
    def test_repair_balance_leaves_a_recounted_state(self, start):
        inst, side = start
        bis = qp._Bisection(inst, side)
        qp._repair_balance(bis)
        _assert_state_is_recount(bis)

    def test_partial_rollback_restores_the_best_prefix(self):
        # Both edges start cut (cut 3) and each side holds at most 3 of the
        # 4 clusters. Pass 1 moves 2 (cut 1), then 0 (cut 0, but 4 clusters
        # on side 0), then 1 (cut 1), and keeps only its first move: it
        # flips 0 and 1 back and puts back the state it copied after moving
        # 2. Pass 2 moves 0 and 1 and keeps neither, so the refinement ends.
        inst = qp._Instance([1] * 4, [(2, (2, 3)), (1, (0, 1))], 3, 3)
        bis = _TracedBisection(inst, [1, 0, 1, 0])
        qp._refine(bis)
        assert bis.side == [1, 0, 0, 0] and bis.cut == 1
        assert bis.log == [
            ("recount",),
            ("set", 2, [1, 0, 0, 0]),
            ("set", 0, [0, 0, 0, 0]),
            ("set", 1, [0, 1, 0, 0]),
            ("set", 0, [1, 1, 0, 0]),
            ("set", 1, [1, 0, 0, 0]),
            ("set", 0, [0, 0, 0, 0]),
            ("set", 1, [0, 1, 0, 0]),
            ("set", 0, [1, 1, 0, 0]),
            ("set", 1, [1, 0, 0, 0]),
        ]
        _assert_state_is_recount(bis)

    def test_short_tail_is_flipped_back(self):
        # Cut 4, each side holds at most 3 of the 4 clusters. Pass 1 moves 2
        # (cut 0, but 4 clusters on side 0), then 0 (cut 1), then 3 (cut 2),
        # and keeps its first two moves: it flips 3, the one move after
        # them, back. Pass 2 moves 0, 3, 2 and 1, keeps none and flips all
        # four back, so the refinement ends.
        inst = qp._Instance([1] * 4, [(3, (1, 2)), (1, (0, 1)), (1, (2, 3))], 3, 3)
        bis = _TracedBisection(inst, [0, 0, 1, 0])
        qp._refine(bis)
        assert bis.side == [1, 0, 0, 0] and bis.cut == 1
        assert bis.log == [
            ("recount",),
            ("set", 2, [0, 0, 0, 0]),
            ("set", 0, [1, 0, 0, 0]),
            ("set", 3, [1, 0, 0, 1]),
            ("set", 3, [1, 0, 0, 0]),
            ("set", 0, [0, 0, 0, 0]),
            ("set", 3, [0, 0, 0, 1]),
            ("set", 2, [0, 0, 1, 1]),
            ("set", 1, [0, 1, 1, 1]),
            ("set", 0, [1, 1, 1, 1]),
            ("set", 3, [1, 1, 1, 0]),
            ("set", 2, [1, 1, 0, 0]),
            ("set", 1, [1, 0, 0, 0]),
        ]
        _assert_state_is_recount(bis)

    @settings(max_examples=100, deadline=None)
    @given(start=st.one_of(fractional_starts(), bisection_starts()))
    def test_repair_balance_of_a_feasible_bisection_moves_nothing(self, start):
        inst, side = start
        bis = _TracedBisection(inst, side)
        assume(bis.feasible())
        assert qp._repair_balance(bis) is True
        assert bis.log == [("recount",)]


# Reference multilevel bisection that runs every restart to the end, even
# one that repeats an earlier restart's side at some level. It refines and
# repairs with the from-scratch references above and recomputes loads and
# cost from the sides, so it shares no bisection state with the solver.


def _reference_greedy_initial(inst):
    """Heaviest cluster first, the lowest index on ties, each to the side
    with more room left under its cap, side 0 on ties."""
    side = [0] * len(inst.weights)
    room = [inst.cap0, inst.cap1]
    for v in sorted(range(len(inst.weights)), key=lambda v: (-inst.weights[v], v)):
        s = 0 if room[0] >= room[1] else 1
        side[v] = s
        room[s] -= inst.weights[v]
    return side


def _reference_solve_bisection(inst, rng):
    max_cluster = Fraction(max(inst.cap0, inst.cap1)) / 2  # exact for int caps too
    levels = [inst]
    while len(levels[-1].weights) > 8:
        coarser = qp._contract(levels[-1], rng, max_cluster)
        if coarser is None:
            break
        levels.append(coarser)

    best_side = None
    best_cost = math.inf
    for restart in range(qp._RESTARTS):
        coarse = levels[-1]
        if restart == 0:
            side = _reference_greedy_initial(coarse)
        else:
            side = [rng.next_below(2) for _ in coarse.weights]
        if not _reference_feasible(coarse, side):
            if not _reference_repair_balance(coarse, side):
                continue
        _reference_refine(coarse, side)
        for level in range(len(levels) - 2, -1, -1):
            side = qp._project(levels[level + 1], side)
            _reference_refine(levels[level], side)
        if not _reference_feasible(inst, side):
            if not _reference_repair_balance(inst, side):
                continue
            _reference_refine(inst, side)
        cost = _reference_cost(inst, side)
        if cost < best_cost:
            best_cost, best_side = cost, list(side)

    if best_side is None:
        for _ in range(qp._RESTARTS):
            side = [rng.next_below(2) for _ in inst.weights]
            if not _reference_feasible(inst, side) and not _reference_repair_balance(inst, side):
                continue
            _reference_refine(inst, side)
            cost = _reference_cost(inst, side)
            if cost < best_cost:
                best_cost, best_side = cost, list(side)
    return best_side


def _solved_side(inst, rng):
    """The sides `_solve_bisection` returns, after checking the cut it reports."""
    bis = qp._solve_bisection(inst, rng)
    if bis is None:
        return None
    assert bis.cut == _reference_cost(inst, bis.side)
    return bis.side


@st.composite
def bisection_instances(draw, fractional=False):
    """9-40 clusters, so coarsening runs; integral weights, or with
    `fractional` FRACTIONAL_WEIGHTS put in one unit; caps from loose to
    infeasible, equal in about half the examples (mirrored restarts pruned)."""
    n = draw(st.integers(min_value=9, max_value=40))
    if fractional:
        weights = draw(st.lists(st.sampled_from(FRACTIONAL_WEIGHTS), min_size=n, max_size=n))
    else:
        weights = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    edges = _integral_edges(draw, n)
    total = sum(weights)
    # Caps in percent of half the total weight: below 100 nothing fits, just
    # above it random starts usually need repair.
    caps = [total * draw(st.integers(90, 200)) // 200 for _ in (0, 1)]
    if draw(st.booleans()):
        caps[1] = caps[0]
    if fractional:
        weights, caps = _in_one_unit(weights, caps)
    inst = qp._Instance(weights, edges, caps[0], caps[1])
    return inst, draw(st.integers(0, 2**64 - 1))


def _restart_log(monkeypatch):
    """Per `_uncoarsen` call, its refined (level instance, side) pairs and
    the coarse instance of each projection, in the order they happen."""
    log = []
    uncoarsen, refine, project = qp._uncoarsen, qp._refine, qp._project

    def logged_uncoarsen(levels, side, seen):
        log.append([])
        return uncoarsen(levels, side, seen)

    def logged_refine(bis, *args):
        refined = refine(bis, *args)
        log[-1].append(("refine", id(bis.inst), tuple(bis.side)))
        return refined

    def logged_project(coarse, side):
        log[-1].append(("project", id(coarse)))
        return project(coarse, side)

    monkeypatch.setattr(qp, "_uncoarsen", logged_uncoarsen)
    monkeypatch.setattr(qp, "_refine", logged_refine)
    monkeypatch.setattr(qp, "_project", logged_project)
    return log


def _state_log(monkeypatch):
    """Per `_uncoarsen` call, the (instance, sides) that each `_Bisection`
    starts from and each write to its sides leaves (a move, or a flip back
    of a rolled-back FM pass), in the order they happen."""
    log = []
    uncoarsen, init = qp._uncoarsen, qp._Bisection.__init__

    def logged_uncoarsen(levels, side, seen):
        log.append([])
        return uncoarsen(levels, side, seen)

    def logged_init(bis, inst, side):
        states = log[-1]
        init(bis, inst, _LoggedSides(side, lambda v, s: states.append((id(inst), tuple(s)))))
        states.append((id(inst), tuple(side)))

    monkeypatch.setattr(qp, "_uncoarsen", logged_uncoarsen)
    monkeypatch.setattr(qp._Bisection, "__init__", logged_init)
    return log


def _mirrored_refines(log):
    """(restart, events after it) for each refined side that is new at its
    level but the mirror of an earlier restart's side there."""
    found, earlier = [], set()
    for restart, events in enumerate(log):
        for i, event in enumerate(events):
            if event[0] != "refine":
                continue
            _, level, side = event
            mirror = (level, tuple(1 - s for s in side))
            if (level, side) not in earlier and mirror in earlier:
                found.append((restart, len(events) - i - 1))
        earlier.update((e[1], e[2]) for e in events if e[0] == "refine")
    return found


class TestPruning:
    """The locked-cut stop, the repeated-restart skip and its mirror rule
    change no result."""

    @settings(max_examples=200, deadline=None)
    @given(instance=bisection_instances())
    def test_solve_bisection_matches_reference(self, instance):
        inst, seed = instance
        rng, reference_rng = SplitMix64(seed), SplitMix64(seed)
        assert _solved_side(inst, rng) == _reference_solve_bisection(inst, reference_rng)
        assert rng.state == reference_rng.state

    @settings(max_examples=200, deadline=None)
    @given(instance=bisection_instances(fractional=True))
    def test_solve_bisection_matches_reference_in_one_unit(self, instance):
        # Weights like these, summed as floats, put loads on either side of a
        # cap depending on the order they are added in.
        inst, seed = instance
        rng, reference_rng = SplitMix64(seed), SplitMix64(seed)
        assert _solved_side(inst, rng) == _reference_solve_bisection(inst, reference_rng)
        assert rng.state == reference_rng.state

    @settings(max_examples=200, deadline=None)
    @given(start=bisection_starts(max_edge_weight=2))
    def test_refine_with_light_edges_matches_reference(self, start):
        # With edge weights 0, 1 and 2 a pass often ends on a gain of exactly
        # the bound's margin, so an off-by-one in the stop rule shows.
        inst, side = start
        cached, reference = list(side), list(side)
        qp._refine(qp._Bisection(inst, cached))
        _reference_refine(inst, reference)
        assert cached == reference

    def test_uncut_start_moves_nothing(self):
        # Two components, each whole on its own side: the cut is already 0.
        edges = [(4, (0, 1, 2)), (3, (1, 2)), (5, (3, 4, 5)), (2, (4, 5))]
        inst = qp._Instance([1] * 6, edges, 3, 3)
        moved = []
        side = _LoggedSides([0, 0, 0, 1, 1, 1], lambda v, s: moved.append(v))
        qp._refine(qp._Bisection(inst, side))
        assert side == [0, 0, 0, 1, 1, 1]
        assert moved == []

    def test_repeated_restart_skips_projection(self, monkeypatch):
        hg = q.normalize_weights(q.circuit_to_hypergraph(q.benchmark_circuit("m")))
        inst = _reference_induce(hg, list(range(hg.num_nodes)), cap0=0.0, cap1=0.0)
        inst.cap0 = inst.cap1 = qp.balance_cap(hg, 2, 0.1)
        projected = []  # the coarse instance of each projection
        project = qp._project
        monkeypatch.setattr(qp, "_project", lambda c, s: projected.append(id(c)) or project(c, s))
        expected = _reference_solve_bisection(inst, SplitMix64(0))
        levels = 1 + len(set(projected))
        # Every reference restart reaches the finest level.
        assert levels >= 3 and len(projected) == qp._RESTARTS * (levels - 1)
        projected.clear()
        assert _solved_side(inst, SplitMix64(0)) == expected
        assert len(projected) < qp._RESTARTS * (levels - 1)

    def test_restart_stops_at_an_earlier_pass_start(self, monkeypatch):
        # Caps 19 | 15, so no mirror is involved. On the finest level,
        # restart 0 starts an FM pass from the sides below and refines on to
        # a lower cut. An FM pass of restart 2 there ends on the same sides;
        # the rest of restart 2 would repeat restart 0's, so it stops before
        # the next pass moves anything.
        weights = [2, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2]
        edges = [
            (4, (5, 8)), (3, (0, 3)), (1, (0, 9)), (5, (1, 3, 8)), (3, (3, 10)), (4, (0, 10)),
            (3, (0, 2, 3)), (1, (0, 1)), (1, (4, 5)), (2, (2, 8)), (4, (0, 9)), (2, (0, 10)),
            (5, (1, 4, 10)), (4, (0, 4, 7)), (3, (6, 9)), (4, (1, 3)), (1, (0, 2, 7)),
            (4, (2, 5, 8)), (3, (4, 6, 9)), (5, (0, 2)), (1, (2, 9, 10)), (4, (3, 10)),
        ]
        inst = qp._Instance(weights, edges, 19, 15)
        seed = 4271453357
        expected = _reference_solve_bisection(inst, SplitMix64(seed))
        log = _state_log(monkeypatch)
        assert _solved_side(inst, SplitMix64(seed)) == expected
        state = (id(inst), (0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 0))
        assert state in log[0] and log[0][-1] != state
        assert log[2][-1] == state

    def test_mirrored_restart_skips_projection(self, monkeypatch):
        # Equal caps: restarts 1 and 3 refine, at the coarsest level, to the
        # mirror of restart 0's side and stop there. A skip of exact repeats
        # alone projects 12 times here.
        hg = q.normalize_weights(q.circuit_to_hypergraph(q.benchmark_circuit("m")))
        inst = _reference_induce(hg, list(range(hg.num_nodes)), cap0=0.0, cap1=0.0)
        inst.cap0 = inst.cap1 = qp.balance_cap(hg, 2, 0.1)
        expected = _reference_solve_bisection(inst, SplitMix64(4))
        log = _restart_log(monkeypatch)
        assert _solved_side(inst, SplitMix64(4)) == expected
        assert _mirrored_refines(log) == [(1, 0), (3, 0)]
        assert sum(e[0] == "project" for events in log for e in events) == 6

    def test_mirror_with_unequal_caps_is_kept(self, monkeypatch):
        # Caps 10 | 13: restart 2's coarsest refined side is the mirror of
        # restart 0's, but its loads swap across unequal caps, so it runs on
        # and ends with the lowest cut.
        weights = [3, 1, 2, 2, 2, 2, 1, 1, 3]
        edges = [
            (2, (2, 8)), (3, (2, 5)), (2, (4, 8)), (3, (0, 2)), (4, (2, 4)),
            (3, (0, 3)), (5, (6, 7)), (5, (6, 7, 8)), (3, (0, 6, 7)), (1, (4, 7)),
            (3, (0, 5, 8)), (3, (2, 8)), (5, (1, 6, 8)), (1, (3, 7)),
        ]
        inst = qp._Instance(weights, edges, 10, 13)
        seed = 3953240531
        expected = _reference_solve_bisection(inst, SplitMix64(seed))
        log = _restart_log(monkeypatch)
        assert _solved_side(inst, SplitMix64(seed)) == expected
        assert _mirrored_refines(log) == [(2, 2)]
        assert log[2][-1] == ("refine", id(inst), tuple(expected))

    @settings(max_examples=200, deadline=None)
    @given(start=bisection_starts(equal_caps=True))
    def test_mirrored_start_ends_mirrored(self, start):
        # The lemma the mirror rule rests on: with equal caps, repair and
        # refinement from the flipped sides end on the flipped result.
        inst, side = start
        bis = qp._Bisection(inst, list(side))
        flipped = qp._Bisection(inst, [1 - s for s in side])
        repaired = qp._repair_balance(bis)
        assert qp._repair_balance(flipped) == repaired
        if repaired:
            qp._refine(bis)
            qp._refine(flipped)
        assert flipped.side == [1 - s for s in bis.side]
        assert flipped.cut == bis.cut
        assert flipped.loads == bis.loads[::-1]
        assert flipped.gains == bis.gains
        assert flipped.counts == bis.counts[::-1]


@st.composite
def fractional_hypergraphs(draw):
    """9-40 nodes with FRACTIONAL_WEIGHTS; integral edge weights."""
    n = draw(st.integers(min_value=9, max_value=40))
    weights = draw(st.lists(st.sampled_from(FRACTIONAL_WEIGHTS), min_size=n, max_size=n))
    edges = tuple(q.Hyperedge(members, w) for w, members in _integral_edges(draw, n))
    return q.Hypergraph(n, tuple(weights), edges)


class TestExactLoads:
    """Node weights that are not integral reach the solver in one unit, so
    its loads are exact and its splits meet the caps exactly."""

    @settings(max_examples=200, deadline=None)
    @given(hg=fractional_hypergraphs(), k=st.integers(2, 4),
           imbalance=st.sampled_from([0.0, 0.03, 0.1, 0.5]), seed=st.integers(0, 2**32))
    def test_uncoarsen_returns_exact_loads(self, hg, k, imbalance, seed):
        returned = []
        uncoarsen = qp._uncoarsen

        def logged_uncoarsen(levels, side, seen):
            bis = uncoarsen(levels, side, seen)
            if bis is not None:
                returned.append(bis)
            return bis

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qp, "_uncoarsen", logged_uncoarsen)
            outcome = _outcome(hg, q.SolverConfig(k=k, imbalance=imbalance, seed=seed))
        for bis in returned:
            assert bis.feasible()
            for t in (0, 1):
                exact = sum(Fraction(w) for w, s in zip(bis.inst.weights, bis.side) if s == t)
                assert Fraction(bis.loads[t]) == exact
            assert bis.cut == _reference_cost(bis.inst, bis.side)
        if not outcome.startswith("SolverError"):
            labels = tuple(map(int, outcome.split(",")))
            assert q.check_balance(hg, q.PartitionAssignment(labels, k), imbalance)

    @settings(max_examples=100, deadline=None)
    @given(num_qubits=st.integers(8, 16), num_gates=st.integers(10, 120),
           circuit_seed=st.integers(0, 2**64 - 1), k=st.integers(2, 4),
           imbalance=st.sampled_from([0.03, 0.1, 0.3]), seed=st.integers(0, 2**32))
    def test_fractional_error_model(self, num_qubits, num_gates, circuit_seed, k, imbalance,
                                    seed):
        # Node weights 1/0.003 and 10/0.03, which are not integral and differ
        # in their last bits.
        model = q.ErrorModel(eps_cnot=0.03, eps_h=0.003, eps_default_single=0.003)
        circuit = random_h_cnot_circuit(SplitMix64(circuit_seed), num_qubits, num_gates)
        hg = q.circuit_to_hypergraph(circuit, model)
        config = q.SolverConfig(k=k, imbalance=imbalance, seed=seed)
        outcome = _outcome(hg, config)
        assert _outcome(hg, config) == outcome
        if not outcome.startswith("SolverError"):
            labels = tuple(map(int, outcome.split(",")))
            assert q.check_balance(hg, q.PartitionAssignment(labels, k), imbalance)

    def test_unit_past_the_float_range(self):
        # u = 2**1074 for the subnormal weight, which no float holds.
        hg = q.Hypergraph(3, (1e-310, 1.0, 1.0), (q.Hyperedge((0, 1, 2), 1.0),))
        asg = q.partition(hg, q.SolverConfig(k=2, imbalance=0.5))
        assert q.check_balance(hg, asg, 0.5)

    def test_infinite_cap_is_the_total_weight(self):
        # (1 + 1e308) * ceil(total / k) overflows to inf, which every load meets.
        hg = q.circuit_to_hypergraph(q.benchmark_circuit("s"))
        weights, cap = qp._in_one_unit(hg, 3, 1e308)
        assert qp.balance_cap(hg, 3, 1e308) == math.inf and cap == sum(weights)
        asg = q.partition(hg, q.SolverConfig(k=3, imbalance=1e308, seed=1))
        assert q.km1(hg, asg) == 0.0

    def test_scaled_weight_past_the_float_range(self):
        # 3 * 2**30 in units of 2**-1000 passes the float range; no split of
        # the two nodes meets the cap of 2.25 * 2**30.
        hg = q.Hypergraph(2, (2.0**-1000, 3.0 * 2**30), (q.Hyperedge((0, 1), 1.0),))
        with pytest.raises(q.SolverError, match="no balanced bisection"):
            q.partition(hg, q.SolverConfig(k=2, imbalance=0.5))


@st.composite
def odd_k_solves(draw):
    """9-40 nodes, integral or FRACTIONAL_WEIGHTS, integral edge weights, and
    an odd k, so the top split has k0 = k1 + 1 parts on side 0; the cap
    (1 + imbalance) * ceil(total / k) is mostly not an integer in the
    solver's unit."""
    n = draw(st.integers(min_value=9, max_value=40))
    if draw(st.booleans()):
        weights = draw(st.lists(st.sampled_from(FRACTIONAL_WEIGHTS), min_size=n, max_size=n))
    else:
        weights = [float(w) for w in draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))]
    edges = tuple(q.Hyperedge(members, w) for w, members in _integral_edges(draw, n))
    hg = q.Hypergraph(n, tuple(weights), edges)
    k = draw(st.sampled_from([3, 5, 7]))
    imbalance = draw(st.sampled_from([0.03, 0.05, 0.1, 0.13, 0.3]))
    return hg, q.SolverConfig(k=k, imbalance=imbalance, seed=draw(st.integers(0, 2**32)))


class TestUnequalCaps:
    """Odd k gives the top split unequal side caps, each k_i times the
    floored cap and clipped to the total weight; `_greedy_initial`'s
    headroom choice and the rest of the top bisection match the references
    on them."""

    @settings(max_examples=200, deadline=None)
    @given(solve=odd_k_solves())
    def test_top_bisection_matches_reference(self, solve):
        hg, config = solve
        solved = []
        solve_bisection = qp._solve_bisection

        def logged_solve_bisection(inst, rng):
            bis = solve_bisection(inst, rng)
            solved.append((inst, bis))
            return bis

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qp, "_solve_bisection", logged_solve_bisection)
            _outcome(hg, config)
            if not solved:  # the packing check raised before the top bisection
                mp.setattr(qp, "_unpackable", lambda weights, parts, cap: False)
                _outcome(hg, config)
        inst, bis = solved[0]

        weights, (cap,) = _in_one_unit(
            hg.node_weights, [Fraction(qp.balance_cap(hg, config.k, config.imbalance))])
        k0 = (config.k + 1) // 2
        caps = [min(parts * cap, sum(weights)) for parts in (k0, config.k - k0)]
        assert [inst.cap0, inst.cap1] == caps
        assert inst.weights == weights

        edges = _reference_induce(q.normalize_weights(hg), list(range(hg.num_nodes)), 0, 0).edges
        reference = qp._Instance(weights, [(int(w), members) for w, members in edges], *caps)
        expected = _reference_solve_bisection(reference, SplitMix64(config.seed))
        assert (bis.side if bis else None) == expected


@st.composite
def raw_hypergraphs(draw):
    """1-10 nodes, with default-model, fractional and float-range-spanning
    weights; edges of 1-6 pins, repeated and unsorted ones included, with
    every weight zero in about a quarter of the draws."""
    n = draw(st.integers(min_value=1, max_value=10))
    node_weights = [1000.0, 200.0, 0.0, 1e-310, 2.0**-1000, 3.0 * 2**30] + FRACTIONAL_WEIGHTS
    weights = draw(st.lists(st.sampled_from(node_weights), min_size=n, max_size=n))
    if draw(st.integers(0, 3)) == 0:
        edge_weight = st.just(0.0)
    else:
        edge_weight = st.floats(min_value=0.0, max_value=1e6)
    members = st.lists(st.integers(0, n - 1), min_size=1, max_size=6).map(tuple)
    edges = draw(st.lists(st.builds(q.Hyperedge, members, edge_weight), max_size=2 * n))
    return q.Hypergraph(n, tuple(weights), tuple(edges))


class TestSubProblems:
    """The solver builds every sub-problem through `_mapped`: the top one
    maps the hypergraph's scaled hyperedges by the identity, and each child
    maps its parent by one side's local numbering. Both equal a fresh
    induction from the normalized hypergraph, incidence lists included."""

    @settings(max_examples=200, deadline=None)
    @given(hg=raw_hypergraphs(), data=st.data())
    def test_top_and_child_instances_match_reference(self, hg, data):
        k = data.draw(st.integers(1, hg.num_nodes))
        imbalance = data.draw(st.sampled_from([0.0, 0.1, 0.5]))
        weights, cap = qp._in_one_unit(hg, k, imbalance)
        expected_weights, expected_caps = _in_one_unit(
            hg.node_weights, [qp.balance_cap(hg, k, imbalance)])
        assert [(type(w), w) for w in weights] == [(int, w) for w in expected_weights]
        assert (type(cap), cap) == (int, expected_caps[0])

        norm = q.normalize_weights(hg)
        n = hg.num_nodes
        nodes = list(range(n))
        edges = list(zip(scaled_weights(hg), (e.members for e in hg.hyperedges)))
        inst = qp._Instance(*qp._mapped(weights, edges, nodes, n), 0, 0)
        assert all(type(w) is int for w, _ in inst.edges)
        for _ in range(3):
            expected = _reference_induce(norm, nodes, 0, 0)
            assert inst.weights == [weights[v] for v in nodes]
            assert inst.edges == expected.edges
            assert inst.incident == [
                [ei for ei, (_, members) in enumerate(expected.edges) if v in members]
                for v in range(len(nodes))
            ]
            if not nodes:
                break
            s = data.draw(st.integers(0, 1))
            side = data.draw(st.one_of(
                st.just([1 - s] * len(nodes)),  # nothing on side s
                st.lists(st.integers(0, 1), min_size=len(nodes), max_size=len(nodes)),
            ))
            nodes = [v for v, t in zip(nodes, side) if t == s]
            to = [side[:i].count(s) if t == s else -1 for i, t in enumerate(side)]
            inst = qp._Instance(*qp._mapped(inst.weights, inst.edges, to, len(nodes)), 0, 0)


# Reference versions of the contraction and projection that summed ratings
# in a dictionary over every pair of every hyperedge's members and projected
# through a dictionary over original nodes.


def _packs(weights, parts, cap) -> bool:
    """Brute force: some assignment of the weights to `parts` bins keeps
    every bin's load within cap."""
    loads = [0] * parts

    def place(i):
        if i == len(weights):
            return True
        for b in range(parts):
            if loads[b] + weights[i] <= cap:
                loads[b] += weights[i]
                if place(i + 1):
                    return True
                loads[b] -= weights[i]
        return False

    return place(0)


def _counted_bisections(monkeypatch) -> list:
    """Patch `_solve_bisection` to log each instance it is called on."""
    calls = []
    solve_bisection = qp._solve_bisection

    def counted(inst, rng):
        calls.append(inst)
        return solve_bisection(inst, rng)

    monkeypatch.setattr(qp, "_solve_bisection", counted)
    return calls


class TestPackingCheck:
    """`_unpackable` fires only when no packing under the cap exists, so the
    solver raises where it stops early exactly what it raised before, and
    only sooner."""

    @settings(max_examples=300, deadline=None)
    @given(weights=st.lists(st.integers(0, 30), min_size=0, max_size=8),
           parts=st.integers(1, 4), cap=st.integers(0, 60))
    def test_fires_only_when_nothing_packs(self, weights, parts, cap):
        if qp._unpackable(weights, parts, cap):
            assert not _packs(weights, parts, cap)

    @settings(max_examples=300, deadline=None)
    @given(weights=st.lists(st.sampled_from([1000, 200]), min_size=0, max_size=8),
           parts=st.integers(1, 4), cap=st.integers(0, 5000))
    def test_exact_for_the_default_weights(self, weights, parts, cap):
        assert qp._unpackable(weights, parts, cap) == (not _packs(weights, parts, cap))

    def test_each_test_fires_alone(self):
        # pigeonhole alone: the total 10 fits two bins of 5, and the gcd is
        # 1, but no bin holds two of the three 3s
        assert qp._unpackable([3, 3, 3, 1], 2, 5)
        # granularity alone: two bins take the 4 and the 2s by count, but
        # with gcd 2 a bin of 5 holds at most 4, and the total 10 passes 2 * 4
        assert qp._unpackable([2, 2, 2, 4], 2, 5)
        assert not qp._unpackable([2, 2, 4], 2, 5)
        assert not qp._unpackable([], 3, 0)
        assert not qp._unpackable([0, 0], 1, 0)

    @staticmethod
    def _assert_outcome_unchanged_without_the_check(hg, config):
        outcome = _outcome(hg, config)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qp, "_unpackable", lambda weights, parts, cap: False)
            assert _outcome(hg, config) == outcome

    @settings(max_examples=300, deadline=None)
    @given(hg=raw_hypergraphs(), data=st.data())
    def test_outcome_unchanged_without_the_check(self, hg, data):
        k = data.draw(st.integers(1, hg.num_nodes))
        config = q.SolverConfig(k=k, imbalance=data.draw(st.sampled_from([0.0, 0.03, 0.1, 0.5])),
                                seed=data.draw(st.integers(0, 2**32)))
        self._assert_outcome_unchanged_without_the_check(hg, config)

    @settings(max_examples=100, deadline=None)
    @given(solve=odd_k_solves())
    def test_odd_k_outcome_unchanged_without_the_check(self, solve):
        # 9-40 nodes, so the sides checked come from multilevel bisections
        self._assert_outcome_unchanged_without_the_check(*solve)

    def test_k_one_is_left_to_check_balance(self):
        # In units of 2**-60 the total passes the floored cap by one, but
        # `check_balance` sums to 1.0 and meets the cap 1.0, so k = 1 solves.
        hg = q.Hypergraph(2, (1.0, 2.0**-60), ())
        weights, cap = qp._in_one_unit(hg, 1, 0.0)
        assert qp._unpackable(weights, 1, cap)
        assert q.partition(hg, q.SolverConfig(k=1, imbalance=0.0)).labels == (0, 0)

    def test_top_check_runs_no_bisection(self, monkeypatch):
        # 12 nodes of weight 1000 and a cap of 1802: a part holds one of
        # them, so 8 parts are too few
        hg = q.circuit_to_hypergraph(q.benchmark_circuit("s"))
        calls = _counted_bisections(monkeypatch)
        with pytest.raises(q.SolverError,
                           match="^no balanced bisection found at the configured imbalance$"):
            q.partition(hg, q.SolverConfig(k=8, imbalance=0.03))
        assert calls == []

    def test_side_check_stops_after_the_top_bisection(self, monkeypatch):
        hg = q.circuit_to_hypergraph(q.benchmark_circuit("l"))
        calls = _counted_bisections(monkeypatch)
        with pytest.raises(q.SolverError,
                           match="^no balanced bisection found at the configured imbalance$"):
            q.partition(hg, q.SolverConfig(k=4, imbalance=0.05, seed=2))
        assert len(calls) == 1


def _reference_contract(inst, inst_clusters, rng, max_cluster):
    """The coarse instance and its clusters' original node ids, or None."""
    n = len(inst.weights)
    connectivity = {}
    for w, members in inst.edges:
        share = w / (len(members) - 1)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pair = (members[i], members[j])
                connectivity[pair] = connectivity.get(pair, 0.0) + share

    neighbors = {}
    for (a, b), w in connectivity.items():
        neighbors.setdefault(a, []).append((w, b))
        neighbors.setdefault(b, []).append((w, a))

    order = list(range(n))
    rng.shuffle(order)
    merged_into = list(range(n))
    matched = [False] * n
    any_match = False
    for v in order:
        if matched[v]:
            continue
        best = -1
        for _, u in sorted(neighbors.get(v, []), key=lambda t: (-t[0], t[1])):
            if matched[u] or u == v:
                continue
            if inst.weights[v] + inst.weights[u] > max_cluster:
                continue
            best = u
            break
        if best >= 0:
            matched[v] = matched[best] = True
            merged_into[best] = v
            any_match = True
    if not any_match:
        return None

    new_id = {}
    clusters = []
    weights = []
    for v in range(n):
        root = merged_into[v]
        if root not in new_id:
            new_id[root] = len(clusters)
            clusters.append([])
            weights.append(0.0)
        cid = new_id[root]
        clusters[cid].extend(inst_clusters[v])
        weights[cid] += inst.weights[v]

    edges = []
    for w, members in inst.edges:
        mapped = tuple(sorted({new_id[merged_into[v]] for v in members}))
        if len(mapped) >= 2:
            edges.append((w, mapped))
    fine_to_coarse = [new_id[merged_into[v]] for v in range(n)]
    return qp._Instance(weights, edges, inst.cap0, inst.cap1, fine_to_coarse), clusters


def _reference_project(clusters, coarse_clusters, coarse_side):
    label_of_node = {}
    for cid, cluster in enumerate(coarse_clusters):
        for v in cluster:
            label_of_node[v] = coarse_side[cid]
    return [label_of_node[cluster[0]] for cluster in clusters]


def _contents(inst):
    return (inst.fine_to_coarse, inst.weights, inst.edges, inst.cap0, inst.cap1, inst.incident)


@st.composite
def contraction_inputs(draw):
    """Integral weights, edges of 2-6 distinct pins and weights from 0, a
    cluster cap that may block merges. In half the draws the edges are chain-like, runs of a
    shuffled cluster order that share at most their end pins, so most
    clusters have one incident edge."""
    n = draw(st.integers(min_value=2, max_value=30))
    weights = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    if draw(st.booleans()):
        edges = _integral_edges(draw, n)
    else:
        order = draw(st.permutations(range(n)))
        edges, start = [], 0
        while start < n - 1:
            end = min(n, start + draw(st.integers(2, 6)))
            edges.append((draw(st.integers(0, 50)), tuple(sorted(order[start:end]))))
            start = end - draw(st.integers(0, 1))  # 1: the next run shares this end pin
    total = sum(weights)
    inst = qp._Instance(weights, edges, total, total)
    max_cluster = draw(st.integers(0, 45))
    return inst, max_cluster, draw(st.integers(0, 2**64 - 1))


class TestContractionMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(inputs=contraction_inputs(), data=st.data())
    def test_hierarchy_and_projection(self, inputs, data):
        inst, max_cluster, seed = inputs
        rng, reference_rng = SplitMix64(seed), SplitMix64(seed)
        levels = [inst]
        clusters = [[[v] for v in range(len(inst.weights))]]  # per level, the reference's
        for _ in range(4):
            coarse = qp._contract(levels[-1], rng, max_cluster)
            expected = _reference_contract(levels[-1], clusters[-1], reference_rng, max_cluster)
            assert rng.state == reference_rng.state
            if expected is None:
                assert coarse is None
                break
            assert _contents(coarse) == _contents(expected[0])
            levels.append(coarse)
            clusters.append(expected[1])
        side = data.draw(
            st.lists(st.integers(0, 1), min_size=len(levels[-1].weights),
                     max_size=len(levels[-1].weights))
        )
        for level in range(len(levels) - 2, -1, -1):
            projected = qp._project(levels[level + 1], side)
            assert projected == _reference_project(clusters[level], clusters[level + 1], side)
            side = projected

    def test_zero_share_neighbour_is_a_candidate_once(self):
        # Clusters 0 and 1 meet on two edges of weight 0, and each meets 2
        # on one of weight 3. 2 is too heavy to merge, so 0 and 1 merge on
        # a rating of 0.0, whichever is visited first. Each cluster has two
        # incident edges, so every visit rates its neighbours.
        edges = [(0, (0, 1)), (0, (0, 1)), (3, (0, 2)), (3, (1, 2))]
        inst = qp._Instance([1, 1, 5], edges, 7, 7)
        for seed in range(8):
            coarse = qp._contract(inst, SplitMix64(seed), 2)
            expected, _ = _reference_contract(inst, [[v] for v in range(3)], SplitMix64(seed), 2)
            assert _contents(coarse) == _contents(expected)
            assert coarse.fine_to_coarse[0] == coarse.fine_to_coarse[1]


def _fake_solver(tmp_path, label: str):
    """A km1 solver stand-in that writes `label` for every node.

    `label` is shell text; `$i` is the node index and `$k` the part count.
    """
    script = tmp_path / "fakesolver"
    script.write_text(textwrap.dedent("""\
        #!/bin/sh
        hgr=""
        k=2
        while [ $# -gt 0 ]; do
          case "$1" in
            -h) hgr="$2"; shift 2 ;;
            -k) k="$2"; shift 2 ;;
            *) shift ;;
          esac
        done
        nodes=$(head -1 "$hgr" | cut -d' ' -f2)
        out="$hgr.part$k.epsilon0.05.seed42"
        : > "$out"
        i=0
        while [ $i -lt $nodes ]; do
          echo LABEL >> "$out"
          i=$((i + 1))
        done
        """).replace("LABEL", label))
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return str(script)


def _running(pid: int) -> bool:
    """True while process `pid` exists and is not a zombie."""
    ps = subprocess.run(["ps", "-o", "stat=", "-p", str(pid)], capture_output=True, text=True)
    return ps.stdout.strip()[:1] not in ("", "Z")


class TestExternalAdapter:
    def test_fake_solver_round_trip(self, hypergraph_s, tmp_path):
        solver = _fake_solver(tmp_path, "$((i % k))")  # alternate labels 0/1 per node
        # The odd nodes weigh 8600 of 14000, so the cap (1 + eps) * 7000 needs eps >= 0.23.
        config = q.SolverConfig(k=2, imbalance=0.25, backend=solver)
        asg = q.partition(hypergraph_s, config)
        assert asg.labels == tuple(i % 2 for i in range(22))

    def test_blank_lines_between_labels_skipped(self, hypergraph_s, tmp_path):
        # each label line is followed by an empty one
        solver = _fake_solver(tmp_path, '$((i % k)) >> "$out"; echo ""')
        config = q.SolverConfig(k=2, imbalance=0.25, backend=solver)
        asg = q.partition(hypergraph_s, config)
        assert asg.labels == tuple(i % 2 for i in range(22))

    def test_unbalanced_labels_raise(self, hypergraph_s, tmp_path):
        solver = _fake_solver(tmp_path, "0")  # every node in part 0
        with pytest.raises(q.SolverError) as excinfo:
            q.partition(hypergraph_s, q.SolverConfig(k=2, imbalance=0.05, backend=solver))
        assert str(excinfo.value) == (
            "external solver labels are unbalanced: part 0 weighs 14000, over the cap 7350"
        )

    def test_non_integer_label_raises(self, hypergraph_s, tmp_path):
        solver = _fake_solver(tmp_path, "x")
        with pytest.raises(q.SolverError, match=r"line 1: label 'x' is not an integer"):
            q.partition(hypergraph_s, q.SolverConfig(k=2, backend=solver))

    # Python's int() reads both as 1, so they used to be accepted
    @pytest.mark.parametrize("label", ["+1", "0_1"])
    def test_non_decimal_label_raises(self, hypergraph_s, tmp_path, label):
        solver = _fake_solver(tmp_path, label)
        with pytest.raises(q.SolverError) as excinfo:
            q.partition(hypergraph_s, q.SolverConfig(k=2, backend=solver))
        assert str(excinfo.value) == f"partition file line 1: label {label!r} is not an integer"

    def test_out_of_range_label_raises(self, hypergraph_s, tmp_path):
        for label in ("7", "2", "-1"):
            solver = _fake_solver(tmp_path, label)
            with pytest.raises(q.SolverError) as excinfo:
                q.partition(hypergraph_s, q.SolverConfig(k=2, backend=solver))
            assert str(excinfo.value) == f"partition file line 1: label {label} outside [0, 2)"

    def test_label_count_mismatch_raises(self, hypergraph_s, tmp_path):
        script = tmp_path / "shortsolver"
        script.write_text(textwrap.dedent("""\
            #!/bin/sh
            while [ $# -gt 0 ]; do
              case "$1" in
                -h) hgr="$2"; shift 2 ;;
                *) shift ;;
              esac
            done
            printf '0\\n1\\n' > "$hgr.part2"
            """))
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        with pytest.raises(q.SolverError, match=r"^label count mismatch: 2 labels for 22 nodes$"):
            q.partition(hypergraph_s, q.SolverConfig(k=2, backend=str(script)))

    def test_failing_solver_raises(self, hypergraph_s, tmp_path):
        script = tmp_path / "broken"
        script.write_text("#!/bin/sh\nexit 3\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        with pytest.raises(q.SolverError):
            q.partition(hypergraph_s, q.SolverConfig(k=2, backend=str(script)))

    def test_missing_binary_raises(self, hypergraph_s, tmp_path):
        missing = str(tmp_path / "no-such-solver")
        with pytest.raises(q.SolverError, match=r"no-such-solver' could not be started"):
            q.partition(hypergraph_s, q.SolverConfig(k=2, backend=missing))

    def test_missing_binary_as_a_path_raises(self, hypergraph_s, tmp_path):
        missing = tmp_path / "no-such-solver"
        with pytest.raises(q.SolverError, match=r"no-such-solver'\) could not be started"):
            q.partition(hypergraph_s, q.SolverConfig(k=2, backend=missing))

    @pytest.mark.parametrize("backend", [None, 5])
    def test_backend_that_is_not_a_path_rejected(self, backend):
        # each used to end in a bare TypeError from subprocess.Popen
        with pytest.raises(ValueError) as excinfo:
            q.SolverConfig(k=2, backend=backend)
        assert str(excinfo.value) == f"backend must be 'internal' or a path, got {backend!r}"
        with pytest.raises(ValueError, match="^backend must be"):
            q.run_hypergraph_pipeline(q.benchmark_circuit("s"), 2, backend=backend)

    def test_non_executable_binary_raises(self, hypergraph_s, tmp_path):
        script = tmp_path / "not-executable"
        script.write_text("#!/bin/sh\nexit 0\n")
        script.chmod(0o644)
        with pytest.raises(q.SolverError, match=r"not-executable' could not be started"):
            q.partition(hypergraph_s, q.SolverConfig(k=2, backend=str(script)))

    def test_slow_solver_times_out(self, hypergraph_s, tmp_path, monkeypatch):
        script = tmp_path / "slow"
        script.write_text("#!/bin/sh\nexec sleep 30\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        monkeypatch.setattr(qp, "_EXTERNAL_TIMEOUT_S", 0.5)
        with pytest.raises(q.SolverError, match=r"slow' did not finish within 0.5 s"):
            q.partition(hypergraph_s, q.SolverConfig(k=2, backend=str(script)))

    def test_timeout_kills_the_solver_process_group(self, hypergraph_s, tmp_path, monkeypatch):
        pid_file = tmp_path / "child.pid"
        script = tmp_path / "wrapper"
        script.write_text(f"#!/bin/sh\nsleep 30 &\necho $! > '{pid_file}'\nwait\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        monkeypatch.setattr(qp, "_EXTERNAL_TIMEOUT_S", 0.5)
        start = time.monotonic()
        with pytest.raises(q.SolverError, match=r"wrapper' did not finish within 0.5 s"):
            q.partition(hypergraph_s, q.SolverConfig(k=2, backend=str(script)))
        # A surviving `sleep` would hold the output pipes open until it ends.
        assert time.monotonic() - start < 10.0
        child = int(pid_file.read_text())
        try:
            deadline = time.monotonic() + 5.0  # SIGKILL lands asynchronously
            while _running(child) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(child)
        finally:
            if _running(child):
                os.kill(child, signal.SIGKILL)

    def test_solver_without_output_raises(self, hypergraph_s, tmp_path):
        script = tmp_path / "silent"
        script.write_text("#!/bin/sh\nexit 0\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        with pytest.raises(q.SolverError):
            q.partition(hypergraph_s, q.SolverConfig(k=2, backend=str(script)))
