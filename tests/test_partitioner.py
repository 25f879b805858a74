import hashlib
import math
import os
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
from qcpart.rng import SplitMix64


def brute_force_km1(hg: q.Hypergraph, labels) -> float:
    """Independent km1 oracle: enumerate each hyperedge's spanned parts."""
    total = 0.0
    for e in hg.hyperedges:
        spanned = set()
        for v in e.members:
            spanned.add(labels[v])
        total += e.weight * (len(spanned) - 1)
    return total


class TestDynamicK:
    def test_reference_values(self):
        assert q.dynamic_k(22, 6, 4) == 2
        assert q.dynamic_k(55, 10, 6) == 3
        assert q.dynamic_k(88, 24, 8) == 4

    def test_floor_of_two(self):
        assert q.dynamic_k(3, 100, 4) == 2

    def test_sqrt_cap(self):
        assert q.dynamic_k(1000, 9, 1) == 3

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            q.dynamic_k(10, 4, 0)
        with pytest.raises(ValueError):
            q.dynamic_k(10, 0, 4)


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

    def test_random_balanced_assignment_unit_weights(self):
        hg = q.Hypergraph(9, (1.0,) * 9, ())
        asg = q.random_balanced_assignment(hg, 3, seed=5)
        counts = [asg.labels.count(i) for i in range(3)]
        assert counts == [3, 3, 3]


class TestInternalSolver:
    def test_quality_bound_vs_reference_labels(self, hypergraph_s, reference_assignment):
        norm = q.normalize_weights(hypergraph_s)
        bound = brute_force_km1(norm, reference_assignment.labels)
        asg = q.partition(hypergraph_s, q.SolverConfig(k=2, seed=42))
        assert q.check_balance(norm, asg, 0.05)
        assert q.km1(norm, asg) <= bound

    def test_deterministic(self, hypergraph_s):
        a = q.partition(hypergraph_s, q.SolverConfig(k=2, seed=42))
        b = q.partition(hypergraph_s, q.SolverConfig(k=2, seed=42))
        assert a.labels == b.labels

    def test_k_exceeding_nodes_rejected(self):
        hg = q.Hypergraph(2, (1.0, 1.0), ())
        with pytest.raises(q.SolverError):
            q.partition(hg, q.SolverConfig(k=3))

    def test_k_one(self, hypergraph_s):
        # k = 1 runs the recursion's one-part case, which labels every node
        # 0; the cap (1 + eps) * ceil(total) holds the total even at eps = 0,
        # and for node weights that are not integral.
        edgeless = q.Hypergraph(3, (1 / 0.003, 1 / 0.05, 0.1), ())
        for hg in (hypergraph_s, edgeless):
            for imbalance in (0.05, 0.0):
                asg = q.partition(hg, q.SolverConfig(k=1, imbalance=imbalance))
                assert asg.labels == (0,) * hg.num_nodes

    @pytest.mark.parametrize("imbalance", [-0.1, float("nan"), float("inf"), float("-inf")])
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


def _k2_candidates(hg: q.Hypergraph, config: q.SolverConfig):
    """The top bisection of a k=2 solve and the sides of its refined random candidate."""
    cap = min(qp.balance_cap(hg, 2, config.imbalance), sum(hg.node_weights))
    inst = qp._induce(hg, list(range(hg.num_nodes)), cap0=cap, cap1=cap)
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


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _random_h_cnot_circuit(rng: SplitMix64, num_qubits: int, num_gates: int) -> q.Circuit:
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
        assert _digest(lines) == self.PAPER_DIGEST

    def test_random_circuits(self):
        rng = SplitMix64(2506)
        lines = []
        for i in range(8):
            hg = q.circuit_to_hypergraph(_random_h_cnot_circuit(rng, 16, 200))
            for k in (2, 4):
                config = q.SolverConfig(k=k, imbalance=0.1, seed=i)
                lines.append(f"circuit {i} k={k} {_outcome(hg, config)}")
        assert _digest(lines) == self.RANDOM_DIGEST


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
    inst = qp._induce(hg, list(range(hg.num_nodes)), cap0=k0 * cap, cap1=(k - k0) * cap)
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
        circuits += [(f"16q/200g #{i}", _random_h_cnot_circuit(rng, 16, 200)) for i in range(4)]
        circuits += [(f"32q/400g #{i}", _random_h_cnot_circuit(rng, 32, 400)) for i in range(2)]
        lines = []
        for label, circuit in circuits:
            hg = q.circuit_to_hypergraph(circuit)
            for k, eps in ((2, 0.1), (2, 0.03), (4, 0.1), (8, 0.05)):
                for seed in (0, 1, 42):
                    for tight in (False, True):
                        lines.extend(_hierarchy_lines(label, hg, k, eps, seed, tight))
        assert len(lines) > 200
        assert _digest(lines) == self.DIGEST


# From-scratch reference versions of the internal solver's refinement and
# balance repair: every gain is re-evaluated over the cluster's edges.


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
    loads = [0.0, 0.0]
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
        loads = [0.0, 0.0]
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
    loads = [0.0, 0.0]
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
    """Up to 3n edges of 2-6 distinct pins over n clusters, integral weights."""
    return [
        (float(w), tuple(sorted(members)))
        for w, members in draw(
            st.lists(
                st.tuples(
                    st.integers(1, max_weight),
                    st.lists(st.integers(0, n - 1), min_size=2, max_size=min(n, 6), unique=True),
                ),
                max_size=3 * n,
            )
        )
    ]


@st.composite
def bisection_starts(draw, max_edge_weight=50):
    """A small instance with integral weights and a start that may overload a side."""
    n = draw(st.integers(min_value=2, max_value=30))
    weights = [float(w) for w in draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))]
    edges = _integral_edges(draw, n, max_edge_weight)
    side = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    loads = [sum(w for w, s in zip(weights, side) if s == t) for t in (0, 1)]
    total = int(sum(weights))
    if draw(st.booleans()):  # feasible start
        caps = [loads[t] + draw(st.integers(0, total)) for t in (0, 1)]
    else:  # caps independent of the start, usually overloading a side
        caps = [float(draw(st.integers(0, total))) for _ in (0, 1)]
    inst = qp._Instance(weights, edges, caps[0], caps[1])
    return inst, side


class TestCachedGainsMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(start=bisection_starts(), moves=st.lists(st.integers(0, 29), max_size=40))
    def test_bisection_tracks_moves(self, start, moves):
        inst, side = start
        bis = qp._Bisection(inst, side)
        incident = _reference_incidence(inst)

        def assert_matches_scratch():
            expected = [_reference_move_gain(inst, side, incident, u) for u in range(len(side))]
            assert bis.gains == expected
            assert bis.counts == [
                [sum(1 for u in m if side[u] == t) for t in (0, 1)] for _, m in inst.edges
            ]
            assert bis.loads == _reference_loads(inst, side)
            assert bis.cut == _reference_cost(inst, side)

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
        edges = [(3.0, (0, 1, 2, 3)), (5.0, (0, 4)), (7.0, (1, 5)), (2.0, (2, 3, 4, 5))]
        inst = qp._Instance([1.0] * 6, edges, 6.0, 6.0)
        side = [0, 0, 0, 0, 0, 1]
        cache = qp._Bisection(inst, side)
        incident = _reference_incidence(inst)
        seen = set()
        for v in (0, 1, 2, 3):
            for ei in inst.incident[v]:
                c = cache.counts[ei]
                seen.add((len(inst.edges[ei][1]), c[side[v]], c[1 - side[v]]))
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


class _LoggedBisection(qp._Bisection):
    """A `_Bisection` that keeps the sides its last move left until its
    loads are next counted from the sides."""

    __slots__ = ("moved_to",)

    def count_loads(self):
        self.moved_to = None
        super().count_loads()

    def move(self, v):
        raised = super().move(v)
        self.moved_to = list(self.side)
        return raised


@st.composite
def fractional_starts(draw):
    """A small instance with node weights that are not integral (loads then
    depend on the order they are summed in), sometimes without edges, and a
    start that may overload a side."""
    n = draw(st.integers(min_value=1, max_value=25))
    weights = draw(
        st.lists(st.sampled_from([1 / 0.003, 1 / 0.05, 0.1, 0.7, 2.5, 1.0, 3.0]),
                 min_size=n, max_size=n)
    )
    edgeless = n < 2 or draw(st.integers(0, 3)) == 0
    edges = [] if edgeless else _integral_edges(draw, n)
    side = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    total = sum(weights)
    caps = [total * draw(st.integers(30, 110)) / 100 for _ in (0, 1)]
    return qp._Instance(weights, edges, caps[0], caps[1]), side


def _assert_state_is_recount(bis):
    """Every field of `bis` equals a fresh recount of its sides. Loads that
    moves updated may differ from the ordered sum in their last bits while
    the sides are as the last move left them; once the sides changed
    otherwise (a rollback), the loads must be recounted exactly."""
    fresh = qp._Bisection(bis.inst, list(bis.side))
    assert bis.cut == fresh.cut
    assert bis.counts == fresh.counts
    assert bis.gains == fresh.gains
    if bis.moved_to == bis.side:
        assert bis.loads == pytest.approx(fresh.loads, rel=1e-12, abs=1e-9)
    else:
        assert bis.loads == fresh.loads


class _TracedBisection(_LoggedBisection):
    """A `_LoggedBisection` that logs each move, each recount, and each count
    of its loads from the sides together with the sides then."""

    __slots__ = ("log",)

    def __init__(self, inst, side):
        self.log = []
        super().__init__(inst, side)

    def recount(self):
        self.log.append(("recount",))
        super().recount()

    def count_loads(self):
        self.log.append(("count", list(self.side)))
        super().count_loads()

    def move(self, v):
        self.log.append(("move", v))
        return super().move(v)


class TestBisectionState:
    """The delta-updated state, and the state a rolled-back FM pass leaves
    by putting back its start and replaying the moves it keeps, both match
    a recount."""

    @settings(max_examples=200, deadline=None)
    @given(start=st.one_of(fractional_starts(), bisection_starts()))
    def test_refine_leaves_a_recounted_state(self, start):
        inst, side = start
        bis = _LoggedBisection(inst, side)
        qp._refine(bis)
        _assert_state_is_recount(bis)

    @settings(max_examples=200, deadline=None)
    @given(start=st.one_of(fractional_starts(), bisection_starts()))
    def test_repair_balance_leaves_a_recounted_state(self, start):
        inst, side = start
        bis = _LoggedBisection(inst, side)
        qp._repair_balance(bis)
        _assert_state_is_recount(bis)

    def test_partial_rollback_replays_the_kept_moves(self):
        # Both edges start cut (cut 3) and each side holds at most 3 of the
        # 4 clusters. Pass 1 moves 2 (cut 1), then 0 (cut 0, but 4 clusters
        # on side 0), then 1 (cut 1), and keeps only its first move. Pass 2
        # moves 0 and 1 and keeps neither, so the refinement ends.
        inst = qp._Instance([1.0] * 4, [(2.0, (2, 3)), (1.0, (0, 1))], 3.0, 3.0)
        bis = _TracedBisection(inst, [1, 0, 1, 0])
        qp._refine(bis)
        assert bis.side == [1, 0, 0, 0] and bis.cut == 1.0
        # Within `_refine` only a rolled-back pass counts loads: the
        # construction's count is followed by one per pass.
        counts = [i for i, entry in enumerate(bis.log) if entry[0] == "count"]
        assert len(counts) == 3
        passes = []
        for before, after in zip(counts, counts[1:]):
            moved = {entry[1] for entry in bis.log[before:after] if entry[0] == "move"}
            old, new = bis.log[before][1], bis.log[after][1]
            passes.append((moved, {v for v in moved if old[v] != new[v]}))
        assert passes == [({0, 1, 2}, {2}), ({0, 1}, set())]
        _assert_state_is_recount(bis)
        assert bis.log.count(("recount",)) == 1 and bis.log[0] == ("recount",)

    @settings(max_examples=100, deadline=None)
    @given(start=st.one_of(fractional_starts(), bisection_starts()))
    def test_repair_balance_of_a_feasible_bisection_moves_nothing(self, start):
        inst, side = start
        bis = _TracedBisection(inst, side)
        assume(bis.feasible())
        assert qp._repair_balance(bis) is True
        assert not any(entry[0] == "move" for entry in bis.log)

    @settings(max_examples=200, deadline=None)
    @given(
        start=st.one_of(fractional_starts(), bisection_starts()),
        moves=st.lists(st.integers(0, 29), max_size=40),
    )
    def test_move_returns_the_highest_raised_gain(self, start, moves):
        inst, side = start
        bis = qp._Bisection(inst, side)
        for v in [m % len(side) for m in moves]:
            before = list(bis.gains)
            raised = bis.move(v)
            risen = [g for u, g in enumerate(bis.gains) if u != v and g > before[u]]
            assert raised == max(risen, default=-math.inf)


# Reference multilevel bisection that runs every restart to the end, even
# one that repeats an earlier restart's side at some level. It refines and
# repairs with the from-scratch references above and recomputes loads and
# cost from the sides, so it shares no bisection state with the solver.


def _reference_solve_bisection(inst, rng):
    max_cluster = max(inst.cap0, inst.cap1) / 2.0
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
            side = qp._greedy_initial(coarse, rng)
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
def bisection_instances(draw):
    """9-40 clusters, so coarsening runs; integral weights; caps from loose to infeasible."""
    n = draw(st.integers(min_value=9, max_value=40))
    weights = [float(w) for w in draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))]
    edges = _integral_edges(draw, n)
    total = int(sum(weights))
    # Caps in percent of half the total weight: below 100 nothing fits, just
    # above it random starts usually need repair.
    caps = [float(total * draw(st.integers(90, 200)) // 200) for _ in (0, 1)]
    inst = qp._Instance(weights, edges, caps[0], caps[1])
    return inst, draw(st.integers(0, 2**64 - 1))


class TestPruning:
    """The locked-cut stop and the repeated-restart skip change no result."""

    @settings(max_examples=200, deadline=None)
    @given(instance=bisection_instances())
    def test_solve_bisection_matches_reference(self, instance):
        inst, seed = instance
        rng, reference_rng = SplitMix64(seed), SplitMix64(seed)
        assert _solved_side(inst, rng) == _reference_solve_bisection(inst, reference_rng)
        assert rng.state == reference_rng.state

    @settings(max_examples=200, deadline=None)
    @given(start=bisection_starts(max_edge_weight=2))
    def test_refine_with_light_edges_matches_reference(self, start):
        # With edge weights 1 and 2 a pass often ends on a gain of exactly
        # the bound's margin, so an off-by-one in the stop rule shows.
        inst, side = start
        cached, reference = list(side), list(side)
        qp._refine(qp._Bisection(inst, cached))
        _reference_refine(inst, reference)
        assert cached == reference

    def test_uncut_start_moves_nothing(self, monkeypatch):
        # Two components, each whole on its own side: the cut is already 0.
        edges = [(4.0, (0, 1, 2)), (3.0, (1, 2)), (5.0, (3, 4, 5)), (2.0, (4, 5))]
        inst = qp._Instance([1.0] * 6, edges, 3.0, 3.0)
        side = [0, 0, 0, 1, 1, 1]
        moved = []
        move = qp._Bisection.move
        monkeypatch.setattr(qp._Bisection, "move", lambda b, v: moved.append(v) or move(b, v))
        qp._refine(qp._Bisection(inst, side))
        assert side == [0, 0, 0, 1, 1, 1]
        assert moved == []

    def test_repeated_restart_skips_projection(self, monkeypatch):
        hg = q.normalize_weights(q.circuit_to_hypergraph(q.benchmark_circuit("m")))
        inst = qp._induce(hg, list(range(hg.num_nodes)), cap0=0.0, cap1=0.0)
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


# Reference versions of the contraction and projection that summed ratings
# in a dictionary over every pair of every hyperedge's members and projected
# through a dictionary over original nodes.


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
    """Integral weights, edges of 2-6 distinct pins, a cluster cap that may block merges."""
    n = draw(st.integers(min_value=2, max_value=30))
    weights = [float(w) for w in draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))]
    edges = _integral_edges(draw, n)
    total = sum(weights)
    inst = qp._Instance(weights, edges, total, total)
    max_cluster = float(draw(st.integers(0, 45)))
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

    def test_unbalanced_labels_raise(self, hypergraph_s, tmp_path):
        solver = _fake_solver(tmp_path, "0")  # every node in part 0
        with pytest.raises(q.SolverError, match=r"part 0 weighs 14000, over the cap 7350"):
            q.partition(hypergraph_s, q.SolverConfig(k=2, imbalance=0.05, backend=solver))

    def test_non_integer_label_raises(self, hypergraph_s, tmp_path):
        solver = _fake_solver(tmp_path, "x")
        with pytest.raises(q.SolverError, match=r"line 1: label 'x' is not an integer"):
            q.partition(hypergraph_s, q.SolverConfig(k=2, backend=solver))

    def test_out_of_range_label_raises(self, hypergraph_s, tmp_path):
        solver = _fake_solver(tmp_path, "7")
        with pytest.raises(q.SolverError, match=r"line 1: label 7 outside \[0, 2\)"):
            q.partition(hypergraph_s, q.SolverConfig(k=2, backend=solver))

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
