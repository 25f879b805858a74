"""Exact k = 2 optima as a live yardstick for the internal solver's cut.

At k = 2, km1 is the total weight of the cut nets. For a set R of nets
allowed to be cut, the nets outside R tie their gates together, so each
union-find component of those nets sits on one side; R is feasible when the
components' node weights split into two sides within the balance cap. Going
through the sets R in order of increasing weight, the first feasible one is
the optimum.
"""

import heapq
import math
from itertools import product
from statistics import mean

import pytest

import qcpart as q
from qcpart.partitioner import balance_cap
from qcpart.rng import SplitMix64

from conftest import brute_force_km1, random_h_cnot_circuit

IMBALANCES = (0.03, 0.05, 0.1)

# Normalized km1 optimum at k = 2 per circuit, at each of IMBALANCES; they
# agree with the MILP table in ROADMAP item 2.
OPTIMA = {
    "s": (1_250_000, 1_250_000, 1_000_000),
    "m": (4_400_000, 4_400_000, 4_400_000),
    "l": (2_000_000, 2_000_000, 1_500_000),
}


def _split(weights: list[int], cap: int) -> list[int] | None:
    """Sides (0 or 1) for the weights with both side sums within cap, or None.

    One subset-sum bitset per prefix of the weights; a side-0 sum in
    [total - cap, cap] is read back through them."""
    reach = [1]
    for w in weights:
        reach.append(reach[-1] | reach[-1] << w)
    low = sum(weights) - cap
    hits = reach[-1] & ((1 << cap + 1) - 1) & ~((1 << max(0, low)) - 1)
    if not hits:
        return None
    side0 = hits.bit_length() - 1
    sides = [1] * len(weights)
    for i in reversed(range(len(weights))):
        if not reach[i] >> side0 & 1:
            sides[i] = 0
            side0 -= weights[i]
    return sides


def _components(num_nodes: int, member_lists) -> list[int]:
    """The union-find root of each node, with each member list joined."""
    parent = list(range(num_nodes))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for first, *rest in member_lists:
        for v in rest:
            parent[find(v)] = find(first)
    return [find(v) for v in range(num_nodes)]


def exact_bisection(hg: q.Hypergraph, imbalance: float) -> tuple[int, tuple[int, ...]] | None:
    """The optimal normalized km1 at k = 2 and a labelling that reaches it,
    or None when no balanced 2-labelling exists."""
    norm = q.normalize_weights(hg)
    assert all(w == int(w) for w in hg.node_weights), "node weights must be integral"
    cap = math.floor(balance_cap(hg, 2, imbalance))
    nets = sorted((int(e.weight), e.members) for e in norm.hyperedges if len(e.members) > 1)
    # (weight of R, its last net, R as ascending net indices); each popped R
    # has the children "add the next net" and "replace the last net", so
    # every set comes out once, in order of increasing weight.
    heap = [(0, -1, ())]
    while heap:
        weight, last, cut = heapq.heappop(heap)
        root = _components(hg.num_nodes, [m for i, (_, m) in enumerate(nets) if i not in cut])
        loads = dict.fromkeys(sorted(set(root)), 0)
        for r, w in zip(root, hg.node_weights):
            loads[r] += int(w)
        sides = _split(list(loads.values()), cap)
        if sides is not None:
            side_of = dict(zip(loads, sides))
            return weight, tuple(side_of[r] for r in root)
        if last + 1 < len(nets):
            nxt = nets[last + 1][0]
            heapq.heappush(heap, (weight + nxt, last + 1, cut + (last + 1,)))
            if cut:
                heapq.heappush(heap, (weight - nets[last][0] + nxt, last + 1, cut[:-1] + (last + 1,)))
    return None


def _instances():
    for name, optima in OPTIMA.items():
        hg = q.circuit_to_hypergraph(q.benchmark_circuit(name))
        for imbalance, optimum in zip(IMBALANCES, optima):
            yield name, hg, imbalance, optimum


@pytest.mark.parametrize("name", OPTIMA)
@pytest.mark.parametrize("imbalance", IMBALANCES)
def test_search_reproduces_the_pinned_optimum_with_a_witness(name, imbalance):
    hg = q.circuit_to_hypergraph(q.benchmark_circuit(name))
    optimum = OPTIMA[name][IMBALANCES.index(imbalance)]
    found, labels = exact_bisection(hg, imbalance)
    assert found == optimum
    witness = q.PartitionAssignment(labels, 2)
    assert q.check_balance(hg, witness, imbalance)
    assert q.km1(q.normalize_weights(hg), witness) == optimum


@pytest.mark.parametrize("seed", range(6))
def test_search_equals_brute_force_on_small_circuits(seed):
    rng = SplitMix64(seed)
    circuit = random_h_cnot_circuit(rng, 2 + rng.next_below(4), 6 + rng.next_below(7))
    hg = q.circuit_to_hypergraph(circuit)
    norm = q.normalize_weights(hg)
    for imbalance in (0.0, 0.1):
        balanced = [
            labels for labels in product((0, 1), repeat=hg.num_nodes)
            if q.check_balance(hg, q.PartitionAssignment(labels, 2), imbalance)
        ]
        found = exact_bisection(hg, imbalance)
        if not balanced:
            assert found is None
            continue
        assert found[0] == min(brute_force_km1(norm, labels) for labels in balanced)


def test_solver_quality_against_the_optima_does_not_drop():
    # A ratchet over seeds 0-19: per circuit, the number of solves that reach
    # the optimum and the mean km1/optimum. A change may tighten these
    # bounds, never loosen them.
    floors = {"s": (34, 1.1934), "m": (0, 1.1531), "l": (37, 1.1417)}
    ratios = {name: [] for name in OPTIMA}
    for name, hg, imbalance, optimum in _instances():
        norm = q.normalize_weights(hg)
        for seed in range(20):
            asg = q.partition(hg, q.SolverConfig(k=2, imbalance=imbalance, seed=seed))
            ratios[name].append(q.km1(norm, asg) / optimum)
    for name, (min_optimal, max_mean) in floors.items():
        assert len(ratios[name]) == 60
        assert min(ratios[name]) >= 1
        assert sum(r == 1 for r in ratios[name]) >= min_optimal
        assert mean(ratios[name]) <= max_mean
