"""km1 hypergraph partitioning.

The internal solver is a deterministic multilevel bisection scheme:
heavy-connectivity matching for coarsening, greedy balanced initial
assignment, then Fiduccia-Mattheyses refinement and balance repair.
Every sub-problem comes from one cluster mapping, `_mapped`: the top one
maps the hypergraph by the identity, a side that splits again maps its
parent's by its own numbering, and a coarse level maps the finer one by
its matching. Coarsening rates a cluster's merge partners from its own
incidence list when the cluster is visited (a cluster with one incident
edge takes its first unmatched member that fits), and each coarse level
keeps only its fine-to-coarse map to project a bisection back, not its
clusters' original nodes; a visit rates its neighbours in a float array
kept for the whole round. One bisection state per level, `_Bisection`,
owns the sides, side loads, cut, per-side flat lists of per-edge pin
counts and move gains that refinement, repair and candidate selection
all read. A move updates only the pins whose gain changes, by fixed
per-side deltas. An FM pass applies its moves inline and keeps one
scalar bound on the unlocked clusters' gains, so its selection scan
stops at the first movable cluster that reaches it; it copies its state
before a move leaves its best prefix, and a rolled-back pass flips the
later moves back and puts that copy back, so only a new `_Bisection`
recounts from the sides.
Every weight the solver sees is an int: node weights in one unit, 1/u for
u the largest power-of-two denominator of a node weight, with the cap
floored in it, and edge weights as `scaled_weights` scales them. Loads,
the cut and gains are exact, whatever order they are summed in.
Every restart, the flat retry on the finest level included, runs through
`_uncoarsen`. Two prunings skip only work whose outcome is already known:
an FM pass stops once the weight of edges with locked clusters on both
sides (cut for the rest of the pass) leaves no later prefix able to beat
the best one, and a restart stops as soon as an FM pass starts at some
level from a side that an earlier restart's pass started from there, or
from its mirror when both sides have the same cap, since the rest of a
restart is deterministic, draws nothing from the RNG and treats the two
sides alike when their caps are equal. k > 2 is handled by recursive
bisection, where a side left empty leaves its parts empty; k = 1 labels
every node 0 and builds no sub-problem. A solve stops early, with the
error it would end in anyway, when the top instance or a side with two
or more parts provably has no packing into its parts under the cap
(`_unpackable`): a solve that completes leaves every part within the cap,
so such a solve could only fail, and a solve that succeeds never meets
the check. At k = 2 a refined random balanced assignment on the top
instance replaces the top bisection when its cut is lower. An
external-solver adapter mirrors the usual Mt-KaHyPar style invocation for
users who have a binary available; it rejects labels that are out of
range or break the balance cap, and raises SolverError when the binary
cannot be started or runs past a fixed time limit, after killing the
binary's whole process group.

All randomness comes from the splitmix64 generator seeded from the config,
so identical inputs always produce identical labels.
"""

from __future__ import annotations

import math
import numbers
import os
import signal
import subprocess
import tempfile
from bisect import bisect_left
from dataclasses import dataclass, field

from .circuits import _check_int, _decimal_int
from .hypergraph import HgrMode, Hypergraph, scaled_weights, write_hgr
from .rng import SplitMix64

INTERNAL = "internal"
_RESTARTS = 4
_EXTERNAL_TIMEOUT_S = 600.0  # wall-clock limit for one external solver run
_NO_BISECTION = "no balanced bisection found at the configured imbalance"


class SolverError(RuntimeError):
    """Partitioning failed (external process error or infeasible balance)."""


@dataclass(frozen=True)
class PartitionAssignment:
    labels: tuple[int, ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        _check_int("k", self.k, 1)
        for label in self.labels:
            if type(label) is not int or not 0 <= label < self.k:
                raise ValueError(f"label {label!r} outside [0, {self.k})")


def _check_imbalance(imbalance) -> None:
    if (isinstance(imbalance, bool) or not isinstance(imbalance, numbers.Real)
            or not (math.isfinite(imbalance) and imbalance >= 0)):
        raise ValueError("imbalance must be a finite number >= 0")


@dataclass(frozen=True)
class SolverConfig:
    k: int
    imbalance: float = 0.05
    seed: int = 42
    backend: str = INTERNAL  # INTERNAL or a path to an external solver binary

    def __post_init__(self):
        _check_int("k", self.k, 1)
        _check_int("seed", self.seed)
        _check_imbalance(self.imbalance)
        if self.backend != INTERNAL:
            try:
                os.fspath(self.backend)
            except TypeError:
                raise ValueError(f"backend must be {INTERNAL!r} or a path, got {self.backend!r}") from None


def dynamic_k(num_ops: int, num_qubits: int, block_size: int) -> int:
    """max(2, min(num_ops // block_size, floor(sqrt(num_qubits))))."""
    _check_int("num_ops", num_ops, 0)
    _check_int("num_qubits", num_qubits, 1)
    _check_int("block_size", block_size, 1)
    return max(2, min(num_ops // block_size, math.isqrt(num_qubits)))


def km1(hg: Hypergraph, assignment: PartitionAssignment) -> float:
    """Sum over hyperedges of w(e) * (number of parts e touches - 1)."""
    if len(assignment.labels) != hg.num_nodes:
        raise ValueError("assignment does not match hypergraph")
    total = 0.0
    for e in hg.hyperedges:
        spanned = len({assignment.labels[v] for v in e.members})
        total += e.weight * (spanned - 1)
    return total


def balance_cap(hg: Hypergraph, k: int, imbalance: float) -> float:
    _check_imbalance(imbalance)
    return (1.0 + imbalance) * math.ceil(math.fsum(hg.node_weights) / k)


def _part_loads(hg: Hypergraph, assignment: PartitionAssignment) -> list[float]:
    if len(assignment.labels) != hg.num_nodes:
        raise ValueError("assignment does not match hypergraph")
    weights: list[list[float]] = [[] for _ in range(assignment.k)]
    for v, label in enumerate(assignment.labels):
        weights[label].append(hg.node_weights[v])
    return [math.fsum(part) for part in weights]


def check_balance(hg: Hypergraph, assignment: PartitionAssignment, imbalance: float) -> bool:
    """True iff every part's node weight, summed exactly (`math.fsum`), is
    within (1+imbalance)*ceil(total/k), whatever order the weights are in."""
    cap = balance_cap(hg, assignment.k, imbalance)
    return all(w <= cap for w in _part_loads(hg, assignment))


def random_balanced_assignment(hg: Hypergraph, k: int, seed: int) -> PartitionAssignment:
    """Round-robin labels over a seeded shuffle of the nodes.

    Exactly balanced for unit node weights. At k = 2 the internal solver
    refines it after the recursive bisection and keeps it when its cut is
    lower, so the solver's km1 never exceeds this one's after refinement.
    """
    _check_int("k", k, 1)
    _check_int("seed", seed)
    order = list(range(hg.num_nodes))
    SplitMix64(seed).shuffle(order)
    labels = [0] * hg.num_nodes
    for pos, v in enumerate(order):
        labels[v] = pos % k
    return PartitionAssignment(tuple(labels), k)


# ---------------------------------------------------------------------------
# Internal solver
# ---------------------------------------------------------------------------


@dataclass
class _Instance:
    """A bisection sub-problem over contracted clusters of original nodes."""

    weights: list[int]
    edges: list[tuple[int, tuple[int, ...]]]  # weight, ascending cluster ids (>= 2)
    cap0: int
    cap1: int
    # from _contract: this instance's cluster id for each finer-level cluster
    fine_to_coarse: list[int] | None = field(default=None, repr=False)
    # edge ids per cluster, ascending
    incident: list[list[int]] = field(init=False, repr=False)
    # below every move gain: no gain exceeds the total edge weight in size
    below: int = field(init=False, repr=False)

    def __post_init__(self):
        self.below = -1 - sum(w for w, _ in self.edges)
        self.incident = incident = [[] for _ in self.weights]
        for ei, (_, members) in enumerate(self.edges):
            for v in members:
                incident[v].append(ei)


def _mapped(weights: list[int], edges: list[tuple[int, tuple[int, ...]]], to: list[int],
            size: int) -> tuple[list[int], list[tuple[int, tuple[int, ...]]]]:
    """The weights and edges of `size` clusters, cluster v sent to `to[v]`,
    or dropped where `to[v]` is -1.

    A new cluster weighs the sum of its members. An edge keeps its mapped
    pins, deduplicated and ascending, when two or more remain.
    """
    mapped_weights = [0] * size
    for c, w in zip(to, weights):
        if c >= 0:
            mapped_weights[c] += w
    mapped_edges = []
    for w, members in edges:
        if len(members) < 2:  # no mapping gives it two pins
            continue
        pins = {to[v] for v in members}
        pins.discard(-1)
        if len(pins) >= 2:
            mapped_edges.append((w, tuple(sorted(pins))))
    return mapped_weights, mapped_edges


def _contract(inst: _Instance, rng: SplitMix64, max_cluster: int) -> _Instance | None:
    """One round of heavy-connectivity matching; None when nothing matched.

    Clusters are visited in a shuffled order. An unmatched cluster v rates
    each unmatched neighbour u by the sum of w / (|e| - 1) over the edges e
    holding both, read from v's incidence list when v is visited, and merges
    with the highest-rated neighbour that fits max_cluster, the lowest index
    on ties. The ratings sit in one float array per call, reset after each
    visit, and v's neighbours are listed in the order v first touches them;
    each rating sums its shares in v's incidence order, and a neighbour met
    only on edges of weight 0 is still a candidate, rated 0.0. With one
    incident edge every candidate rates its one share, so the first
    unmatched member that fits wins (members are ascending).
    """
    n = len(inst.weights)
    weights, edges, incident = inst.weights, inst.edges, inst.incident
    order = list(range(n))
    rng.shuffle(order)
    merged_into = list(range(n))
    matched = [False] * n
    # per edge, a position before which every member is matched
    cursor = [0] * len(edges)
    # per cluster, its rating by the cluster being visited, -1.0 when it has
    # none (every share is >= 0); reset after each visit
    rating = [-1.0] * n
    any_match = False
    for v in order:
        if matched[v]:
            continue
        wv = weights[v]
        best = -1
        mine = incident[v]
        if len(mine) == 1:
            ei = mine[0]
            members = edges[ei][1]
            i = cursor[ei]
            while matched[members[i]]:  # stops at v, a member and unmatched
                i += 1
            cursor[ei] = i
            for u in members[i:]:
                if u != v and not matched[u] and wv + weights[u] <= max_cluster:
                    best = u
                    break
        else:
            touched = []
            matched[v] = True  # so v rates no pin of its own; set back below
            for ei in mine:
                w, members = edges[ei]
                share = w / (len(members) - 1)
                for u in members:
                    if not matched[u]:
                        r = rating[u]
                        if r < 0.0:
                            touched.append(u)
                            rating[u] = share
                        else:
                            rating[u] = r + share
            best_rating = -math.inf
            for u in touched:
                r = rating[u]
                rating[u] = -1.0
                if r < best_rating or (r == best_rating and u > best):
                    continue
                if wv + weights[u] > max_cluster:
                    continue
                best, best_rating = u, r
            matched[v] = False
        if best >= 0:
            matched[v] = matched[best] = True
            merged_into[best] = v
            any_match = True
    if not any_match:
        return None

    # Coarse ids are numbered by each cluster's lowest fine index; a pair's
    # root may be its higher index, so the id is stored at the root first.
    coarse_of = [-1] * n
    size = 0
    for v in range(n):
        root = merged_into[v]
        if coarse_of[root] < 0:
            coarse_of[root] = size
            size += 1
        coarse_of[v] = coarse_of[root]
    return _Instance(*_mapped(weights, edges, coarse_of, size), inst.cap0, inst.cap1, coarse_of)


def _greedy_initial(inst: _Instance) -> list[int]:
    """Heaviest-first assignment to the side with the most remaining headroom."""
    order = sorted(range(len(inst.weights)), key=lambda v: (-inst.weights[v], v))
    side = [0] * len(inst.weights)
    loads = [0, 0]
    caps = (inst.cap0, inst.cap1)
    for v in order:
        head0 = caps[0] - loads[0] - inst.weights[v]
        head1 = caps[1] - loads[1] - inst.weights[v]
        pick = 0 if head0 >= head1 else 1
        side[v] = pick
        loads[pick] += inst.weights[v]
    return side


class _Bisection:
    """One bisection of an instance: sides, side loads, cut and move gains.

    `counts` is a pair of flat lists, `counts[s][e]` edge e's pins on side
    s. For a pin on side s, edge e adds -w to the pin's gain when no pin of
    e is on the other side (the move would cut e) and +w when the pin is
    e's only one on s (the move would uncut e), so a cluster's gain is
    exactly the drop in cut its move causes. Every weight is an int, so the
    gains, the cut and the loads stay exact under moves and equal a
    from-scratch `recount`, whatever order the moves take.
    """

    __slots__ = ("inst", "side", "loads", "cut", "counts", "gains")

    def __init__(self, inst: _Instance, side: list[int]):
        self.inst = inst
        self.side = side
        self.recount()

    def recount(self) -> None:
        """Derive loads, cut, counts and gains from `side` alone."""
        inst, side = self.inst, self.side
        loads = [0, 0]
        for w, s in zip(inst.weights, side):
            loads[s] += w
        cut = 0
        count0, count1 = [], []
        gains = [0] * len(side)
        for w, members in inst.edges:
            c1 = 0
            for u in members:
                c1 += side[u]
            c0 = len(members) - c1
            count0.append(c0)
            count1.append(c1)
            if c0 and c1:
                cut += w
            g0 = -w if not c1 else w if c0 == 1 else 0  # each side-0 pin's gain
            g1 = -w if not c0 else w if c1 == 1 else 0
            if g0 or g1:
                for u in members:
                    gains[u] += g1 if side[u] else g0
        self.loads, self.cut, self.counts, self.gains = loads, cut, (count0, count1), gains

    def feasible(self) -> bool:
        return self.loads[0] <= self.inst.cap0 and self.loads[1] <= self.inst.cap1

    def move(self, v: int) -> None:
        """Flip cluster v's side and delta-update the state.

        With cs and cd the edge's pins on the source and target side before
        the move, each other source pin's gain rises by
        w * ((cd == 0) + (cs == 2)) and each target pin's falls by
        w * ((cd == 1) + (cs == 1)), so an edge with cd > 1 and cs > 2 only
        updates its counts. v's own gain simply changes sign. `_refine`
        applies its moves with the same deltas inline.
        """
        inst = self.inst
        side, gains, edges = self.side, self.gains, inst.edges
        src = side[v]
        dst = 1 - src
        on_src, on_dst = self.counts[src], self.counts[dst]
        own = gains[v]
        side[v] = dst  # v is no source pin below; its gain is set last
        for ei in inst.incident[v]:
            cs = on_src[ei]
            cd = on_dst[ei]
            on_src[ei] = cs - 1
            on_dst[ei] = cd + 1
            if cd > 1 and cs > 2:
                continue
            w, members = edges[ei]
            if cd == 0 or cs == 2:
                d = w * ((cd == 0) + (cs == 2))
                for u in members:
                    if side[u] == src:
                        gains[u] += d
            if cd == 1 or cs == 1:
                d = w * ((cd == 1) + (cs == 1))
                for u in members:
                    if side[u] == dst:
                        gains[u] -= d
        gains[v] = -own
        self.loads[src] -= inst.weights[v]
        self.loads[dst] += inst.weights[v]
        self.cut -= own


def _refine(bis: _Bisection, seen: set | None = None, level: int = 0) -> bool:
    """Fiduccia-Mattheyses refinement of `bis` in place; False when it stops
    on a pass start already in `seen`.

    Each pass tentatively moves every cluster at most once, always taking
    the highest-gain move among unlocked clusters whose move fits the target
    cap plus slack, the lowest cluster index on ties, even when the gain is
    negative. The slack is the heaviest cluster weight, so weight exchanges
    stay reachable, but the pass rolls back to the best prefix whose loads
    satisfy both caps. A pass applies its moves inline, with
    `_Bisection.move`'s deltas, in one loop over the moved cluster's edges
    that also locks them and raises the scan's bound. Before a move leaves
    the best prefix (the empty one at the first move), the pass copies the
    loads, gains and pin counts as flat lists; a pass that ends past its
    best prefix flips the later moves' sides back and puts that copy back,
    and a pass without moves copies nothing. The cut after a pass is its
    start's minus the best prefix's gain. Loads and gains are exact
    integer sums, so the state is the recount of its sides. Passes repeat
    while they improve the cut, so the result is never worse than the
    (assumed feasible) input.

    Each pass first adds its start to `seen` under the key (`level`, side),
    the side flipped when the caps are equal and cluster 0 is on side 1,
    and refinement stops, returning False, when the key is already there:
    the rest of the restart is a function of that side and draws nothing
    from the RNG, so it would end on an earlier restart's result or its
    mirror, with the same cut. With equal caps, a pass from the mirrored
    side makes the mirrored moves. The cut falls with every pass, so
    without a `seen` of earlier restarts nothing stops early.

    The scan keeps the selection's result but not always its length. A pass
    keeps `bound`, never below any unlocked cluster's gain: -`inst.below`
    at first, then the highest gain seen by a scan that reaches the end,
    raised to each gain a move raises. The ascending scan stops at
    the first movable cluster whose gain reaches `bound`; no cluster has a
    higher gain and none before it as high a one, so it is the cluster the
    full scan picks.

    A moved cluster stays locked for the rest of the pass, so an edge with
    locked pins on both sides stays cut: with C0 the cut at the start of the
    pass and L the weight of such edges, no later prefix gains more than
    C0 - L. The pass therefore stops once that bound cannot beat the best
    prefix, and a pass that starts uncut moves nothing. The bound is an
    exact int, so the labels are those of a full pass.
    """
    inst, side = bis.inst, bis.side
    weights, incident, edges = inst.weights, inst.incident, inst.edges
    cap0, cap1, below = inst.cap0, inst.cap1, inst.below
    slack = max(weights, default=0)
    limits = (cap0 + slack, cap1 + slack)

    mirror = cap0 == cap1
    if seen is None:
        seen = set()
    improved = True
    while improved:
        key = tuple(side)
        if mirror and key[0]:
            key = tuple([1 - s for s in key])
        key = (level, key)
        if key in seen:
            return False
        seen.add(key)
        # a rollback replaces the lists
        gains, loads, counts, cut = bis.gains, bis.loads, bis.counts, bis.cut
        # per side: the edge has a locked pin there
        locked = ([False] * len(edges), [False] * len(edges))
        locked_cut = 0
        unlocked = list(range(len(side)))  # ascending, so the scan keeps the tie-break
        moves: list[int] = []
        running = 0
        best_running, best_prefix = 0, 0
        saved = None  # the state at the best prefix, copied when a move leaves it
        bound = -below  # never below an unlocked cluster's gain
        while unlocked and locked_cut < cut - best_running:
            best_v, best_gain, top = -1, below, below
            for v in unlocked:
                gain = gains[v]
                if gain > best_gain:
                    if gain > top:
                        top = gain
                    target = 1 - side[v]
                    if loads[target] + weights[v] <= limits[target]:
                        best_v, best_gain = v, gain
                        if gain >= bound:
                            break  # no later cluster can have a higher gain
            else:
                bound = top
            if best_v < 0:
                break
            src = side[best_v]
            dst = 1 - src
            if best_prefix == len(moves):  # a rollback may come back here
                saved = (loads[:], gains[:], (counts[0][:], counts[1][:]))
            # The move of best_v, with `_Bisection.move`'s deltas; each raised
            # gain also raises the bound, and each edge is locked on dst.
            on_src, on_dst = counts[src], counts[dst]
            locked_src, locked_dst = locked[src], locked[dst]
            side[best_v] = dst
            for ei in incident[best_v]:
                cs = on_src[ei]
                cd = on_dst[ei]
                on_src[ei] = cs - 1
                on_dst[ei] = cd + 1
                if not locked_dst[ei]:
                    locked_dst[ei] = True
                    if locked_src[ei]:
                        locked_cut += edges[ei][0]
                if cd > 1 and cs > 2:
                    continue
                w, members = edges[ei]
                if cd == 0 or cs == 2:
                    d = w * ((cd == 0) + (cs == 2))
                    for u in members:
                        if side[u] == src:
                            g = gains[u] + d
                            gains[u] = g
                            if g > bound:
                                bound = g
                if cd == 1 or cs == 1:
                    d = w * ((cd == 1) + (cs == 1))
                    for u in members:
                        if side[u] == dst:
                            gains[u] -= d
            gains[best_v] = -best_gain
            loads[src] -= weights[best_v]
            loads[dst] += weights[best_v]
            unlocked.remove(best_v)
            moves.append(best_v)
            running += best_gain
            if running > best_running and loads[0] <= cap0 and loads[1] <= cap1:
                best_running, best_prefix = running, len(moves)
        if best_prefix < len(moves):  # back to the best prefix
            for v in moves[best_prefix:]:
                side[v] = 1 - side[v]
            bis.loads, bis.gains, bis.counts = saved
        bis.cut = cut - best_running
        improved = best_running > 0
    return True


def _repair_balance(bis: _Bisection) -> bool:
    """Move lightest-damage clusters off an overloaded side. True on success.

    Each step moves the overloaded side's cluster that fits the other side
    with the highest gain, the lowest index on ties.
    """
    inst, side, loads, gains = bis.inst, bis.side, bis.loads, bis.gains
    weights = inst.weights
    caps = (inst.cap0, inst.cap1)
    for _ in range(len(side)):
        over = next((s for s in (0, 1) if loads[s] > caps[s]), None)
        if over is None:
            return True
        room = caps[1 - over] - loads[1 - over]
        best, best_gain = -1, 0
        for v, s in enumerate(side):  # ascending, so a strict > keeps the lowest index
            if s == over and weights[v] <= room and (best < 0 or gains[v] > best_gain):
                best, best_gain = v, gains[v]
        if best < 0:
            return False
        bis.move(best)
    return bis.feasible()


def _project(coarse: _Instance, coarse_side: list[int]) -> list[int]:
    """The finer level's sides: each cluster takes its coarse cluster's side."""
    return [coarse_side[c] for c in coarse.fine_to_coarse]


def _uncoarsen(levels: list[_Instance], side: list[int], seen: set) -> _Bisection | None:
    """Run one restart from `side` at the coarsest level; the finest `_Bisection`.

    Repairs the balance at the coarsest level if needed, refines there, then
    projects and refines down to the finest level. Refinement keeps a
    feasible split feasible, and a projected split has the same loads, exact
    sums of the same integers, so every level's split meets the caps.
    Returns None when the repair fails, or as soon as an FM pass starts
    from a (level, side) already in `seen`; `_refine` records every pass
    start there. With equal caps a side and its mirror (every side flipped)
    share one key, the orientation with cluster 0 on side 0: refinement
    and projection from the mirror end on the mirror of the same result,
    with the same cut and the two loads swapped.
    """
    bis = _Bisection(levels[-1], side)
    if not _repair_balance(bis):
        return None
    for level in range(len(levels) - 1, -1, -1):
        if level < len(levels) - 1:
            bis = _Bisection(levels[level], _project(levels[level + 1], bis.side))
        if not _refine(bis, seen, level):
            return None
    return bis


def _solve_bisection(inst: _Instance, rng: SplitMix64) -> _Bisection | None:
    """Multilevel bisection of one instance; None if no balanced split found.

    Keeps the restart with the lowest cut, the earliest on ties. A restart
    that `_uncoarsen` stops at a repeated pass start would end as an
    earlier one or its mirror, with the same cut, which the strict `<`
    never takes. The caps are equal when the parts split evenly, or when
    both are clipped to the sub-problem's total weight.
    """
    # Cluster weights are ints, so halving the cap by floor division decides
    # every `> max_cluster` test as `/ 2` would.
    max_cluster = max(inst.cap0, inst.cap1) // 2
    levels = [inst]
    while len(levels[-1].weights) > 8:
        coarser = _contract(levels[-1], rng, max_cluster)
        if coarser is None:
            break
        levels.append(coarser)

    best: _Bisection | None = None
    seen: set[tuple[int, tuple[int, ...]]] = set()
    for restart in range(2 * _RESTARTS):
        if restart == _RESTARTS:
            if best is not None:
                break
            # Coarse-level restarts could not be repaired into balance; retry
            # flat on the finest level, where individual clusters are lighter.
            # `seen` is empty: the first restart past repair records it and sets `best`
            levels = [inst]
        coarse = levels[-1]
        if restart == 0:
            side = _greedy_initial(coarse)
        else:
            side = [u % 2 for u in rng.draws(len(coarse.weights))]
        bis = _uncoarsen(levels, side, seen)
        if bis is not None and (best is None or bis.cut < best.cut):
            best = bis
    return best


def _in_one_unit(hg: Hypergraph, k: int, imbalance: float) -> tuple[list[int], int]:
    """Node weights and the balance cap as ints in units of 1/u, u the
    largest power-of-two denominator of a node weight (1 for integral
    ones), so every load is an exact integer sum.

    The weights are exact, from `as_integer_ratio`. The cap is floored,
    which no int load compares differently with than with the exact cap;
    an infinite cap, which every load meets, becomes the total weight.
    """
    ratios = {w: w.as_integer_ratio() for w in set(hg.node_weights)}
    unit = max(d for _, d in ratios.values())
    scaled = {w: n * (unit // d) for w, (n, d) in ratios.items()}
    weights = [scaled[w] for w in hg.node_weights]
    cap = balance_cap(hg, k, imbalance)
    if cap == math.inf:
        return weights, sum(weights)
    n, d = cap.as_integer_ratio()
    return weights, n * unit // d


def _unpackable(weights: list[int], parts: int, cap: int) -> bool:
    """True when the int `weights` provably fit no `parts` bins of `cap`.

    Either more than `parts * (cap // w)` nodes weigh w or more, for some
    distinct positive weight w, since no bin holds more of them, or the
    total passes `parts * g * (cap // g)`, g > 0 the weights' gcd, since
    every bin's load is a multiple of g. With two positive weights, the
    heavier a multiple of the lighter, these are exact: the heavy nodes
    fit by count and the rest is whole light units.
    """
    ordered = sorted(weights)
    distinct = set(ordered)
    for w in distinct:
        if w > 0 and len(ordered) - bisect_left(ordered, w) > parts * (cap // w):
            return True
    g = math.gcd(*distinct)
    return g > 0 and sum(ordered) > parts * g * (cap // g)


def _partition_internal(hg: Hypergraph, config: SolverConfig) -> PartitionAssignment:
    k = config.k
    if k > hg.num_nodes:
        raise SolverError(f"k={k} exceeds node count {hg.num_nodes}")
    if k == 1:
        # Nothing to bisect, and no packing check: `check_balance`'s float
        # sums can meet a cap that the int total passes.
        return _checked(hg, [0] * hg.num_nodes, config)

    weights, cap = _in_one_unit(hg, k, config.imbalance)
    # A solve that completes leaves every part within the cap, so an
    # instance, or a side below, that its parts cannot hold would end in
    # this error anyway, only later.
    if _unpackable(weights, k, cap):
        raise SolverError(_NO_BISECTION)
    rng = SplitMix64(config.seed)
    labels = [0] * hg.num_nodes

    # Recursive bisection: split the k target parts into two groups and
    # bound each side by (parts on that side) * final cap. A side left empty
    # is balanced too; its parts stay empty. The top sub-problem maps the
    # hypergraph by the identity, and a side that splits again maps its
    # parent's by its own numbering.
    nodes = list(range(hg.num_nodes))
    edges = list(zip(scaled_weights(hg), (e.members for e in hg.hyperedges)))
    stack = [(nodes, *_mapped(weights, edges, nodes, len(nodes)), 0, k)]
    while stack:
        nodes, weights, edges, first_label, parts = stack.pop()
        if parts == 1 or not nodes:
            for v in nodes:
                labels[v] = first_label
            continue
        k0 = (parts + 1) // 2
        k1 = parts - k0
        # no side can hold more than the sub-problem's whole weight
        total = sum(weights)
        inst = _Instance(weights, edges, min(k0 * cap, total), min(k1 * cap, total))
        bis = _solve_bisection(inst, rng)
        if bis is None:
            raise SolverError(_NO_BISECTION)
        # both sides are checked before either is built, so a failing solve
        # maps neither
        halves = ((0, first_label, k0), (1, first_label + k0, k1))
        for s, _, p in halves:
            if p > 1 and _unpackable([w for w, t in zip(weights, bis.side) if t == s], p, cap):
                raise SolverError(_NO_BISECTION)
        for s, first, p in halves:
            to, part = [-1] * len(nodes), []
            for i, (v, t) in enumerate(zip(nodes, bis.side)):
                if t == s:
                    to[i] = len(part)
                    part.append(v)
            sub = _mapped(weights, edges, to, len(part)) if p > 1 and part else (None, None)
            stack.append((part, *sub, first, p))

    # At k = 2 the one bisection solved is the top one, whose labels are its
    # sides. A refined seeded random assignment on the same instance is one
    # more candidate, which also upper-bounds the result by that assignment's
    # km1: normalized edge weights are integral, so a bisection's cut is
    # exactly its km1.
    if k == 2:
        rand = _Bisection(bis.inst, list(random_balanced_assignment(hg, k, config.seed).labels))
        if rand.feasible():
            _refine(rand)
            if rand.cut < bis.cut:
                labels = rand.side
    return _checked(hg, labels, config)


def _checked(hg: Hypergraph, labels: list[int], config: SolverConfig) -> PartitionAssignment:
    """Either backend's labels as an assignment, once `check_balance`
    accepts them."""
    result = PartitionAssignment(tuple(labels), config.k)
    if not check_balance(hg, result, config.imbalance):
        loads = _part_loads(hg, result)
        heaviest = max(range(config.k), key=loads.__getitem__)
        cap = balance_cap(hg, config.k, config.imbalance)
        backend = "internal" if config.backend == INTERNAL else "external"
        raise SolverError(
            f"{backend} solver labels are unbalanced: part {heaviest} weighs "
            f"{loads[heaviest]:g}, over the cap {cap:g}"
        )
    return result


# ---------------------------------------------------------------------------
# External solver adapter
# ---------------------------------------------------------------------------


def _partition_external(hg: Hypergraph, config: SolverConfig) -> PartitionAssignment:
    binary = config.backend
    with tempfile.TemporaryDirectory(prefix="qcpart-") as tmp:
        input_path = os.path.join(tmp, "circuit.hgr")
        with open(input_path, "w") as fh:
            fh.write(write_hgr(hg, HgrMode.STANDARD))
        cmd = [
            binary,
            "-h", input_path,
            "-k", str(config.k),
            "-e", str(config.imbalance),
            "-o", "km1",
            "-m", "direct",
            "--seed", str(config.seed),
            "--write-partition-file=true",
        ]
        try:
            # A session of its own, so a timeout can kill the children of a
            # wrapper script along with it.
            proc = subprocess.Popen(
                cmd,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                start_new_session=True,
            )
        except OSError as exc:
            raise SolverError(
                f"external solver {binary!r} could not be started: {exc.strerror or exc}"
            ) from exc
        try:
            _, stderr = proc.communicate(timeout=_EXTERNAL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SolverError(
                f"external solver {binary!r} did not finish within {_EXTERNAL_TIMEOUT_S:g} s"
            ) from None
        if proc.returncode != 0:
            raise SolverError(f"external solver failed: {stderr.strip()}")
        candidates = [
            os.path.join(tmp, name)
            for name in os.listdir(tmp)
            if ".part" in name and name != "circuit.hgr"
        ]
        if not candidates:
            raise SolverError("partition file not found next to solver input")
        partition_file = max(candidates, key=os.path.getmtime)
        labels = []
        with open(partition_file) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    label = _decimal_int(line)
                except ValueError:
                    raise SolverError(
                        f"partition file line {lineno}: label {line!r} is not an integer"
                    ) from None
                if not 0 <= label < config.k:
                    raise SolverError(
                        f"partition file line {lineno}: label {label} outside [0, {config.k})"
                    )
                labels.append(label)
    if len(labels) != hg.num_nodes:
        raise SolverError(
            f"label count mismatch: {len(labels)} labels for {hg.num_nodes} nodes"
        )
    return _checked(hg, labels, config)


def partition(hg: Hypergraph, config: SolverConfig) -> PartitionAssignment:
    """Assign each node to one of config.k parts minimizing km1 under balance."""
    if config.backend == INTERNAL:
        return _partition_internal(hg, config)
    return _partition_external(hg, config)
