"""km1 hypergraph partitioning.

The internal solver is a deterministic multilevel bisection scheme:
heavy-connectivity matching for coarsening, greedy balanced initial
assignment, then Fiduccia-Mattheyses refinement and balance repair.
Coarsening rates a cluster's merge partners from its own incidence list
when the cluster is visited, and each coarse level keeps only its
fine-to-coarse map to project a bisection back, not its clusters'
original nodes. One bisection state per level, `_Bisection`, owns the
sides, side loads, cut, per-edge pin counts and move gains that
refinement, repair and candidate selection all read. A move updates only
the pins whose gain changes, by fixed per-side deltas, and reports the
highest gain it raised. An FM pass keeps one scalar bound on the unlocked
clusters' gains, so its selection scan stops at the first movable cluster
that reaches it; a rolled-back pass puts back its start state and replays
the moves it keeps, so only a new `_Bisection` recounts from the sides.
Every restart, the flat retry on the finest level included, runs through
`_uncoarsen`. Two prunings skip only work whose outcome is already known:
an FM pass stops once the weight of edges with locked clusters on both
sides (cut for the rest of the pass) leaves no later prefix able to beat
the best one, and a restart whose refined side at some level repeats an
earlier restart's is dropped, since the rest of a restart is deterministic
and draws nothing from the RNG. k > 2 is handled by recursive bisection,
where a side left empty leaves its parts empty. At k = 2 a refined random
balanced assignment on the top instance replaces the top bisection when
its cut is lower. An external-solver adapter mirrors the usual Mt-KaHyPar
style invocation for users who have a binary available; it rejects labels
that are out of range or break the balance cap, and raises SolverError
when the binary cannot be started or runs past a fixed time limit, after
killing the binary's whole process group.

All randomness comes from the splitmix64 generator seeded from the config,
so identical inputs always produce identical labels.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import tempfile
from dataclasses import dataclass, field

from .hypergraph import HgrMode, Hypergraph, normalize_weights, write_hgr
from .rng import SplitMix64

INTERNAL = "internal"
_RESTARTS = 4
_EXTERNAL_TIMEOUT_S = 600.0  # wall-clock limit for one external solver run


class SolverError(RuntimeError):
    """Partitioning failed (external process error or infeasible balance)."""


@dataclass(frozen=True)
class PartitionAssignment:
    labels: tuple[int, ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        for label in self.labels:
            if not 0 <= label < self.k:
                raise ValueError(f"label {label} outside [0, {self.k})")


@dataclass(frozen=True)
class SolverConfig:
    k: int
    imbalance: float = 0.05
    seed: int = 42
    backend: str = INTERNAL  # INTERNAL or a path to an external solver binary

    def __post_init__(self):
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not (math.isfinite(self.imbalance) and self.imbalance >= 0):
            raise ValueError("imbalance must be a finite number >= 0")


def dynamic_k(num_ops: int, num_qubits: int, block_size: int) -> int:
    """max(2, min(num_ops // block_size, floor(sqrt(num_qubits))))."""
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
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
    return (1.0 + imbalance) * math.ceil(sum(hg.node_weights) / k)


def _part_loads(hg: Hypergraph, assignment: PartitionAssignment) -> list[float]:
    loads = [0.0] * assignment.k
    for v, label in enumerate(assignment.labels):
        loads[label] += hg.node_weights[v]
    return loads


def check_balance(hg: Hypergraph, assignment: PartitionAssignment, imbalance: float) -> bool:
    """True iff every part's node weight is within (1+imbalance)*ceil(total/k)."""
    cap = balance_cap(hg, assignment.k, imbalance)
    return all(w <= cap for w in _part_loads(hg, assignment))


def random_balanced_assignment(hg: Hypergraph, k: int, seed: int) -> PartitionAssignment:
    """Round-robin labels over a seeded shuffle of the nodes.

    Exactly balanced for unit node weights. At k = 2 the internal solver
    refines it after the recursive bisection and keeps it when its cut is
    lower, so the solver's km1 never exceeds this one's after refinement.
    """
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

    weights: list[float]
    edges: list[tuple[float, tuple[int, ...]]]  # weight, cluster indices (>= 2 distinct)
    cap0: float
    cap1: float
    # from _contract: this instance's cluster id for each finer-level cluster
    fine_to_coarse: list[int] | None = field(default=None, repr=False)
    incident: list[list[int]] = field(init=False, repr=False)  # edge ids per cluster

    def __post_init__(self):
        self.incident = [[] for _ in self.weights]
        for ei, (_, members) in enumerate(self.edges):
            for v in members:
                self.incident[v].append(ei)


def _induce(hg: Hypergraph, nodes: list[int], cap0: float, cap1: float) -> _Instance:
    index = {v: i for i, v in enumerate(nodes)}
    edges = []
    for e in hg.hyperedges:
        members = tuple(sorted({index[v] for v in e.members if v in index}))
        if len(members) >= 2:
            edges.append((e.weight, members))
    return _Instance([hg.node_weights[v] for v in nodes], edges, cap0, cap1)


def _contract(inst: _Instance, rng: SplitMix64, max_cluster: float) -> _Instance | None:
    """One round of heavy-connectivity matching; None when nothing matched.

    Clusters are visited in a shuffled order. An unmatched cluster v rates
    each unmatched neighbour u by the sum of w / (|e| - 1) over the edges e
    holding both, read from v's incidence list when v is visited, and merges
    with the highest-rated neighbour that fits max_cluster, the lowest index
    on ties.
    """
    n = len(inst.weights)
    weights, edges, incident = inst.weights, inst.edges, inst.incident
    order = list(range(n))
    rng.shuffle(order)
    merged_into = list(range(n))
    matched = [False] * n
    any_match = False
    for v in order:
        if matched[v]:
            continue
        rating: dict[int, float] = {}
        for ei in incident[v]:
            w, members = edges[ei]
            share = w / (len(members) - 1)
            for u in members:
                if u != v and not matched[u]:
                    rating[u] = rating.get(u, 0.0) + share
        best, best_rating = -1, -math.inf
        wv = weights[v]
        for u, r in rating.items():
            if r < best_rating or (r == best_rating and u > best):
                continue
            if wv + weights[u] > max_cluster:
                continue
            best, best_rating = u, r
        if best >= 0:
            matched[v] = matched[best] = True
            merged_into[best] = v
            any_match = True
    if not any_match:
        return None

    # Coarse ids are numbered by each cluster's lowest fine index; a pair's
    # root may be its higher index, so the id is stored at the root first.
    coarse_of = [-1] * n
    cweights: list[float] = []
    for v in range(n):
        root = merged_into[v]
        cid = coarse_of[root]
        if cid < 0:
            cid = coarse_of[root] = len(cweights)
            cweights.append(0.0)
        coarse_of[v] = cid
        cweights[cid] += weights[v]

    coarse_edges = []
    for w, members in edges:
        mapped = tuple(sorted({coarse_of[v] for v in members}))
        if len(mapped) >= 2:
            coarse_edges.append((w, mapped))
    return _Instance(cweights, coarse_edges, inst.cap0, inst.cap1, coarse_of)


def _greedy_initial(inst: _Instance, rng: SplitMix64) -> list[int]:
    """Heaviest-first assignment to the side with the most remaining headroom."""
    order = sorted(range(len(inst.weights)), key=lambda v: (-inst.weights[v], v))
    side = [0] * len(inst.weights)
    loads = [0.0, 0.0]
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

    `counts` holds each edge's pins per side. For a pin on side s, edge e
    adds -w to the pin's gain when no pin of e is on the other side (the
    move would cut e) and +w when the pin is e's only one on s (the move
    would uncut e), so a cluster's gain is exactly the drop in cut its move
    causes. Edge weights are integral floats, so the gains and the cut stay
    exact under moves and equal a from-scratch `recount`.
    """

    __slots__ = ("inst", "side", "loads", "cut", "counts", "gains")

    def __init__(self, inst: _Instance, side: list[int]):
        self.inst = inst
        self.side = side
        self.recount()

    def count_loads(self) -> None:
        """Derive `loads` from `side`, summed in cluster order."""
        loads = [0.0, 0.0]
        for w, s in zip(self.inst.weights, self.side):
            loads[s] += w
        self.loads = loads

    def recount(self) -> None:
        """Derive loads, cut, counts and gains from `side` alone."""
        inst, side = self.inst, self.side
        self.count_loads()
        cut = 0.0
        counts = []
        gains = [0.0] * len(side)
        for w, members in inst.edges:
            c1 = 0
            for u in members:
                c1 += side[u]
            c0 = len(members) - c1
            counts.append([c0, c1])
            if c0 and c1:
                cut += w
            g0 = -w if not c1 else w if c0 == 1 else 0.0  # each side-0 pin's gain
            g1 = -w if not c0 else w if c1 == 1 else 0.0
            if g0 or g1:
                for u in members:
                    gains[u] += g1 if side[u] else g0
        self.cut, self.counts, self.gains = cut, counts, gains

    def feasible(self) -> bool:
        return self.loads[0] <= self.inst.cap0 and self.loads[1] <= self.inst.cap1

    def move(self, v: int) -> float:
        """Flip cluster v's side, delta-update the state and return the
        highest new gain among the other clusters whose gain went up, or
        -inf when none did.

        With cs and cd the edge's pins on the source and target side before
        the move, each other source pin's gain rises by
        w * ((cd == 0) + (cs == 2)) and each target pin's falls by
        w * ((cd == 1) + (cs == 1)), so only source pins can rise, and an
        edge with cd > 1 and cs > 2 only updates its counts. v's own gain
        simply changes sign.
        """
        inst = self.inst
        side, gains, counts, edges = self.side, self.gains, self.counts, inst.edges
        src = side[v]
        dst = 1 - src
        own = gains[v]
        side[v] = dst  # v is no source pin below; its gain is set last
        raised = -math.inf
        for ei in inst.incident[v]:
            c = counts[ei]
            cs = c[src]
            cd = c[dst]
            c[src] = cs - 1
            c[dst] = cd + 1
            if cd > 1 and cs > 2:
                continue
            w, members = edges[ei]
            if cd == 0 or cs == 2:
                d = w * ((cd == 0) + (cs == 2))
                for u in members:
                    if side[u] == src:
                        g = gains[u] + d
                        gains[u] = g
                        if g > raised:
                            raised = g
            if cd == 1 or cs == 1:
                d = w * ((cd == 1) + (cs == 1))
                for u in members:
                    if side[u] == dst:
                        gains[u] -= d
        gains[v] = -own
        self.loads[src] -= inst.weights[v]
        self.loads[dst] += inst.weights[v]
        self.cut -= own
        return raised


def _refine(bis: _Bisection) -> None:
    """Fiduccia-Mattheyses refinement of `bis` in place.

    Each pass tentatively moves every cluster at most once, always taking
    the highest-gain move among unlocked clusters whose move fits the target
    cap plus slack, the lowest cluster index on ties, even when the gain is
    negative. The slack is the heaviest cluster weight, so weight exchanges
    stay reachable, but the pass rolls back to the best prefix whose loads
    satisfy both caps. It flips every move of the pass back, puts back the
    gains, counts and cut saved at the pass's start, replays the prefix's
    moves and recounts only the loads, in the order `recount` sums them;
    the prefix is empty in most passes, every last one included. Passes
    repeat while they improve the cut, so the result is never worse than
    the (assumed feasible) input.

    The scan keeps the selection's result but not always its length. A pass
    keeps `bound`, never below any unlocked cluster's gain: +inf at first,
    the highest gain seen by a scan that reaches the end, raised to what
    each move reports raising. The ascending scan stops at the first
    movable cluster whose gain reaches `bound`; no cluster has a higher
    gain and none before it as high a one, so it is the cluster the full
    scan picks.

    A moved cluster stays locked for the rest of the pass, so an edge with
    locked pins on both sides stays cut: with C0 the cut at the start of the
    pass and L the weight of such edges, no later prefix gains more than
    C0 - L. The pass therefore stops once that bound cannot beat the best
    prefix, and a pass that starts uncut moves nothing. Edge weights are
    integral floats, so the bound is exact and the labels are those of a
    full pass.
    """
    inst, side = bis.inst, bis.side
    weights, edges, incident = inst.weights, inst.edges, inst.incident
    caps = (inst.cap0, inst.cap1)
    slack = max(weights, default=0.0)
    limits = (caps[0] + slack, caps[1] + slack)
    n = len(side)

    improved = True
    while improved:
        gains, loads, cut = bis.gains, bis.loads, bis.cut  # a rollback replaces the lists
        saved = (list(gains), [c.copy() for c in bis.counts])
        locked = ([False] * len(edges), [False] * len(edges))  # per side: edge has a locked pin
        locked_cut = 0.0
        unlocked = list(range(n))  # ascending, so the scan keeps the tie-break
        moves: list[int] = []
        running = 0.0
        best_running, best_prefix = 0.0, 0
        bound = math.inf  # never below an unlocked cluster's gain
        while unlocked and locked_cut < cut - best_running:
            best_v, best_gain, top = -1, -math.inf, -math.inf
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
            raised = bis.move(best_v)
            if raised > bound:
                bound = raised
            on_src, on_dst = locked[src], locked[1 - src]
            for ei in incident[best_v]:
                if not on_dst[ei]:
                    on_dst[ei] = True
                    if on_src[ei]:
                        locked_cut += edges[ei][0]
            unlocked.remove(best_v)
            moves.append(best_v)
            running += best_gain
            if bis.feasible() and running > best_running:
                best_running, best_prefix = running, len(moves)
        if best_prefix < len(moves):  # back to the pass's start, then the kept moves
            for v in moves:
                side[v] = 1 - side[v]
            bis.gains, bis.counts = saved
            bis.cut = cut
            for v in moves[:best_prefix]:
                bis.move(v)
            bis.count_loads()
        improved = best_running > 0


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
        target = 1 - over
        fits = [
            v for v in range(len(side))
            if side[v] == over and loads[target] + weights[v] <= caps[target]
        ]
        if not fits:
            return False
        bis.move(min(fits, key=lambda u: (-gains[u], u)))
    return bis.feasible()


def _project(coarse: _Instance, coarse_side: list[int]) -> list[int]:
    """The finer level's sides: each cluster takes its coarse cluster's side."""
    return [coarse_side[c] for c in coarse.fine_to_coarse]


def _uncoarsen(levels: list[_Instance], side: list[int], seen: set) -> _Bisection | None:
    """Run one restart from `side` at the coarsest level; the finest `_Bisection`.

    Repairs the balance at the coarsest level if needed, refines there, then
    projects and refines down to the finest level, where a split whose loads
    summed at that level break a cap is repaired and refined once more.
    Returns None when a repair fails, or as soon as the refined
    (level, side) is already in `seen`, and records it there otherwise.
    """
    bis = _Bisection(levels[-1], side)
    if not _repair_balance(bis):
        return None
    for level in range(len(levels) - 1, -1, -1):
        if level < len(levels) - 1:
            bis = _Bisection(levels[level], _project(levels[level + 1], bis.side))
        _refine(bis)
        key = (level, tuple(bis.side))
        if key in seen:
            return None
        seen.add(key)
    if not bis.feasible():
        if not _repair_balance(bis):
            return None
        _refine(bis)
    return bis


def _solve_bisection(inst: _Instance, rng: SplitMix64) -> _Bisection | None:
    """Multilevel bisection of one instance; None if no balanced split found.

    Keeps the restart with the lowest cut, the earliest on ties. A restart
    whose refined side at some level repeats an earlier restart's side at
    that level is dropped: the rest of a restart draws nothing from the RNG
    and is deterministic, so it would end as the earlier one did, with the
    same cut, which the strict `<` never takes, or with the same failed
    repair.
    """
    max_cluster = max(inst.cap0, inst.cap1) / 2.0
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
            levels, seen = [inst], set()
        coarse = levels[-1]
        if restart == 0:
            side = _greedy_initial(coarse, rng)
        else:
            side = [u % 2 for u in rng.draws(len(coarse.weights))]
        bis = _uncoarsen(levels, side, seen)
        if bis is not None and (best is None or bis.cut < best.cut):
            best = bis
    return best


def _partition_internal(hg: Hypergraph, config: SolverConfig) -> PartitionAssignment:
    k = config.k
    if k > hg.num_nodes:
        raise SolverError(f"k={k} exceeds node count {hg.num_nodes}")

    hg = normalize_weights(hg)
    cap = balance_cap(hg, k, config.imbalance)
    rng = SplitMix64(config.seed)
    labels = [0] * hg.num_nodes

    # Recursive bisection: split the k target parts into two groups and
    # bound each side by (parts on that side) * final cap. A side left empty
    # is balanced too; its parts stay empty.
    stack: list[tuple[list[int], int, int]] = [(list(range(hg.num_nodes)), 0, k)]
    while stack:
        nodes, first_label, parts = stack.pop()
        if parts == 1 or not nodes:
            for v in nodes:
                labels[v] = first_label
            continue
        k0 = (parts + 1) // 2
        k1 = parts - k0
        # no side can hold more than the sub-problem's whole weight
        total = sum(hg.node_weights[v] for v in nodes)
        inst = _induce(hg, nodes, cap0=min(k0 * cap, total), cap1=min(k1 * cap, total))
        bis = _solve_bisection(inst, rng)
        if bis is None:
            raise SolverError("no balanced bisection found at the configured imbalance")
        stack.append(([v for v, s in zip(nodes, bis.side) if s == 0], first_label, k0))
        stack.append(([v for v, s in zip(nodes, bis.side) if s == 1], first_label + k0, k1))

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
    result = PartitionAssignment(tuple(labels), k)
    if not check_balance(hg, result, config.imbalance):
        raise SolverError("internal solver produced an unbalanced assignment")
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
                    label = int(line)
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
    result = PartitionAssignment(tuple(labels), config.k)
    if not check_balance(hg, result, config.imbalance):
        loads = _part_loads(hg, result)
        heaviest = max(range(config.k), key=loads.__getitem__)
        cap = balance_cap(hg, config.k, config.imbalance)
        raise SolverError(
            f"external solver labels are unbalanced: part {heaviest} weighs "
            f"{loads[heaviest]:g}, over the cap {cap:g}"
        )
    return result


def partition(hg: Hypergraph, config: SolverConfig) -> PartitionAssignment:
    """Assign each node to one of config.k parts minimizing km1 under balance."""
    if config.backend == INTERNAL:
        return _partition_internal(hg, config)
    return _partition_external(hg, config)
