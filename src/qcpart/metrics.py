"""Partition quality metrics and the two-method comparison report.

Fidelity uses the product-of-errors model F_p = prod over gates g of
(1 - eps_g)^m_g, with eps_g and m_g the rate and multiplicity
``ErrorModel.charge`` gives g's kind; ``circuit_to_hypergraph`` weights a
gate-level hyperedge with the same rate. Estimated SWAPs are logical
realignments: one per shared global qubit whose local indices differ
between two partitions.

Nothing here scans every partition pair. Both overlap figures read
``pipeline``'s one qubit -> holders index: cut qubits are the qubits with
two or more holders, and the SWAP estimate turns the index into a
per-qubit list of (holder, local index) pairs, walks it with a per-qubit
cursor and keeps only the misaligned (pair, qubit) entries, so its cost
grows with the number of shared (pair, qubit) entries rather than with the
square of the partition count. The waiver compares raw 64-bit draws with
an integer threshold that decides exactly as the float test
``draw / 2**64 < 0.6``, and reads the draws from ``SplitMix64.draws`` a
block at a time; the stream belongs to the call, so drawing up to one
block ahead changes no output. Counts, depth and gate validation read each
partition's global gates: ``partition_metrics`` counts their kinds and
validation their (kind, global qubits) keys, and a kind, one object per
(name, arity), hashes and compares by identity.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from .circuits import _RATE_FIELDS, CNOT, H, SWAP, Circuit, ErrorModel, Gate, GateKind, _check_int, gate_depth
from .pipeline import Partition, _qubit_holders
from .rng import _LANES, SplitMix64

# The smallest u64 draw u with u / 2**64 >= 0.6: a draw waives a SWAP exactly
# when ``next_float() < 0.6`` would hold, since true division of integers
# rounds correctly and never falls as u rises.
_WAIVE_BELOW = int(0.6 * 2**64) - 1023


def _waiver_draws(seed: int) -> Iterator[int]:
    """Endless stream of ``SplitMix64(seed)``'s draws, read from ``draws``."""
    # The first block is small and each next one doubles up to the largest,
    # so a short stream stays cheap: fixed 2048-draw blocks took circuit l's
    # waiver from 255 to 591 us per call. The caller compares each draw with
    # ``_WAIVE_BELOW``, which costs less than yielding a flag from here.
    rng, n = SplitMix64(seed), 64
    while True:
        yield from rng.draws(n)
        n = min(2 * n, _LANES)


@dataclass(frozen=True)
class SwapEstimate:
    total: int
    per_pair: Mapping[tuple[int, int], int]
    per_partition_attribution: tuple[int, ...]
    waived: int

    def __post_init__(self):
        if self.total != sum(self.per_pair.values()):
            raise ValueError("per-pair counts do not sum to total")
        if self.total != sum(self.per_partition_attribution):
            raise ValueError("attribution does not sum to total")


@dataclass(frozen=True)
class PartitionMetrics:
    gate_count: int
    depth: int
    h_count: int
    cnot_count: int
    swap_attributed: int
    fidelity: float

    @property
    def error_rate(self) -> float:
        return 1.0 - self.fidelity


@dataclass(frozen=True)
class MethodReport:
    name: str
    num_partitions: int
    cut_qubits: tuple[int, ...]
    swaps: SwapEstimate
    total_fidelity: float
    max_depth: int
    time_seconds: float
    partitions: tuple[PartitionMetrics, ...]
    gate_counts_valid: bool


@dataclass(frozen=True)
class ComparisonReport:
    baseline: MethodReport
    hypergraph: MethodReport


def cut_qubits(parts: Sequence[Partition]) -> set[int]:
    """Global qubits appearing in the maps of two or more partitions."""
    holders = _qubit_holders(p.qubit_map for p in parts)
    return {q for q, held in holders.items() if len(held) >= 2}


def estimate_swaps(
    parts: Sequence[Partition], heuristic_on: bool = False, seed: int = 42
) -> SwapEstimate:
    """Count misaligned shared qubits over all partition pairs.

    Pairs are visited in lexicographic order, shared qubits ascending; each
    misalignment costs one SWAP attributed to the lower-index partition.
    With the teleportation heuristic on, once a qubit has accumulated more
    than 3 misalignments (waived ones included), each further cost is
    waived with probability 0.6, drawn from a splitmix64 stream seeded once
    per call; ``seed`` must be an int.
    """
    _check_int("seed", seed)
    maps = [p.qubit_map for p in parts]
    # global qubit -> (holder, its local index) for the holders ascending
    entries = {
        q: [(j, maps[j][q]) for j in held] for q, held in _qubit_holders(maps).items()
    }
    # per qubit, the position of the current partition in its entries
    cursor = dict.fromkeys(entries, 0)
    draw = _waiver_draws(seed).__next__
    misalignments = dict.fromkeys(entries, 0)
    per_pair: dict[tuple[int, int], int] = {}
    attribution = [0] * len(parts)
    waived = 0
    for i, map_i in enumerate(maps):
        # later partition j -> the qubits it shares with i at another local index
        misaligned: defaultdict[int, list[int]] = defaultdict(list)
        for q, local in map_i.items():
            pos = cursor[q] + 1
            cursor[q] = pos
            for j, other in entries[q][pos:]:
                if other != local:
                    misaligned[j].append(q)
        for j in sorted(misaligned):
            qubits = misaligned[j]
            count = len(qubits)
            if heuristic_on:
                for q in qubits:
                    misalignments[q] += 1
                    if misalignments[q] > 3 and draw() < _WAIVE_BELOW:
                        count -= 1
                        waived += 1
            if count:
                per_pair[(i, j)] = count
                attribution[i] += count
    return SwapEstimate(
        total=sum(per_pair.values()),
        per_pair=per_pair,
        per_partition_attribution=tuple(attribution),
        waived=waived,
    )


def fidelity(
    h_count: int,
    cnot_count: int,
    swap_count: int,
    other_gates: Mapping[GateKind, int] | None = None,
    model: ErrorModel | None = None,
) -> float:
    """Product-of-errors fidelity for one partition (computed in log space).

    Each count, ``other_gates``' included, must be an int >= 0, and each
    gate is charged as ``ErrorModel.charge`` says.
    """
    model = model or ErrorModel()
    counts = [("h_count", H, h_count), ("cnot_count", CNOT, cnot_count),
              ("swap_count", SWAP, swap_count)]
    if other_gates:
        counts += [(f"other_gates[{k.name!r}]", k, n) for k, n in other_gates.items()]
    exponents = dict.fromkeys(_RATE_FIELDS, 0)
    for name, kind, count in counts:
        _check_int(name, count, 0)
        if count:
            rate, times = model.charge(kind)
            exponents[rate] += times * count
    # term by term in the fields' order: `sum` rounds otherwise on CPython 3.12+
    log_f = 0.0
    for rate, n in exponents.items():
        if n:
            log_f += n * math.log1p(-getattr(model, rate))
    return math.exp(log_f)


def total_fidelity(per_partition: Sequence[float]) -> float:
    result = 1.0
    for f in per_partition:
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"fidelity {f} outside [0, 1]")
        result *= f
    return result


def partition_metrics(
    part: Partition, swap_attributed: int, model: ErrorModel | None = None
) -> PartitionMetrics:
    kinds = Counter(g.kind for g in part.gates)
    h_count = kinds.pop(H, 0)
    cnot_count = kinds.pop(CNOT, 0)
    return PartitionMetrics(
        gate_count=len(part.gates),
        depth=gate_depth(part.gates, part.qubit_map),
        h_count=h_count,
        cnot_count=cnot_count,
        swap_attributed=swap_attributed,
        fidelity=fidelity(h_count, cnot_count, swap_attributed, kinds, model),
    )


def _gate_keys(gates: Iterable[Gate]) -> Counter:
    """`validate_gate_counts`' multiset of gates: (kind, qubits) counts,
    SWAP gates left out."""
    return Counter((g.kind, g.qubits) for g in gates if g.kind is not SWAP)


def validate_gate_counts(original: Circuit, parts: Sequence[Partition]) -> bool:
    """Multiset equality of (kind, global qubits) between circuit and partitions.

    SWAP gates are excluded on both sides; they may be communication
    artifacts rather than core operations.
    """
    return _gate_keys(original.gates) == _gate_keys(g for p in parts for g in p.gates)


def method_report(
    name: str,
    original: Circuit,
    parts: Sequence[Partition],
    time_seconds: float = 0.0,
    model: ErrorModel | None = None,
    heuristic_on: bool = False,
    seed: int = 42,
) -> MethodReport:
    model = model or ErrorModel()
    swaps = estimate_swaps(parts, heuristic_on=heuristic_on, seed=seed)
    rows = tuple(
        partition_metrics(p, swaps.per_partition_attribution[i], model)
        for i, p in enumerate(parts)
    )
    return MethodReport(
        name=name,
        num_partitions=len(parts),
        cut_qubits=tuple(sorted(cut_qubits(parts))),
        swaps=swaps,
        total_fidelity=total_fidelity([r.fidelity for r in rows]),
        max_depth=max((r.depth for r in rows), default=0),
        time_seconds=time_seconds,
        partitions=rows,
        gate_counts_valid=validate_gate_counts(original, parts),
    )


def build_report(
    original: Circuit,
    baseline_parts: Sequence[Partition],
    hypergraph_parts: Sequence[Partition],
    timings: Mapping[str, float] | None = None,
    model: ErrorModel | None = None,
    heuristic_on: bool = False,
    seed: int = 42,
) -> ComparisonReport:
    timings = dict(timings or {})
    return ComparisonReport(
        baseline=method_report(
            "block-baseline", original, baseline_parts,
            timings.get("baseline", 0.0), model, heuristic_on, seed,
        ),
        hypergraph=method_report(
            "hypergraph", original, hypergraph_parts,
            timings.get("hypergraph", 0.0), model, heuristic_on, seed,
        ),
    )


def report_to_dict(report: ComparisonReport) -> dict:
    """Stable structured rendering; timings live under their own key."""
    def method(m: MethodReport) -> dict:
        return {
            "name": m.name,
            "num_partitions": m.num_partitions,
            "cut_qubits": list(m.cut_qubits),
            "swap_total": m.swaps.total,
            "swap_waived": m.swaps.waived,
            "swap_attribution": list(m.swaps.per_partition_attribution),
            "swap_per_pair": {
                f"{i}-{j}": n for (i, j), n in sorted(m.swaps.per_pair.items())
            },
            "total_fidelity": m.total_fidelity,
            "max_depth": m.max_depth,
            "gate_counts_valid": m.gate_counts_valid,
            "partitions": [
                {
                    "gate_count": r.gate_count,
                    "depth": r.depth,
                    "h_count": r.h_count,
                    "cnot_count": r.cnot_count,
                    "swap_attributed": r.swap_attributed,
                    "fidelity": r.fidelity,
                    "error_rate": r.error_rate,
                }
                for r in m.partitions
            ],
        }

    return {
        "baseline": method(report.baseline),
        "hypergraph": method(report.hypergraph),
        "timings": {
            "baseline_seconds": report.baseline.time_seconds,
            "hypergraph_seconds": report.hypergraph.time_seconds,
        },
    }


def format_report(report: ComparisonReport) -> str:
    """Fixed-width text table of the headline metrics."""
    header = (
        f"{'Method':<16}{'Parts':>6}{'CutQ':>6}{'SWAPs':>7}"
        f"{'Fidelity':>10}{'MaxDepth':>10}{'Time(s)':>9}"
    )
    lines = [header, "-" * len(header)]
    for m in (report.baseline, report.hypergraph):
        lines.append(
            f"{m.name:<16}{m.num_partitions:>6}{len(m.cut_qubits):>6}"
            f"{m.swaps.total:>7}{m.total_fidelity:>10.4f}{m.max_depth:>10}"
            f"{m.time_seconds:>9.3f}"
        )
    for m in (report.baseline, report.hypergraph):
        if not m.gate_counts_valid:
            lines.append(f"WARNING: gate count validation failed for {m.name}")
    return "\n".join(lines)
