"""Fidelity-weighted hypergraph construction and hMETIS-dialect I/O.

One node per gate. A hyperedge is its members and its weight, and the two
families are told apart by size:
  - gate-level: a singleton {gate} per multi-qubit gate, weight
    100 * arity / eps, penalizing cuts through entangling operations, with
    eps the rate `ErrorModel.charge` gives the gate's kind, the rate the
    fidelity estimate charges it at;
  - temporal chain: all gates on one qubit (when >= 2), weight
    max(1, 100 * (m // 2) / eps_h), preserving per-qubit execution order.

Node weights are 10/eps for CNOT and 1/eps otherwise (see `node_weight`).

A gate-level edge has one pin, so it always spans one part (lambda = 1)
and adds 0 to km1 under any assignment. It exists only so the paper's hgr
output carries it; the internal solver drops it with every other edge of
fewer than two distinct pins when it builds its top sub-problem, after
`scaled_weights`, the one place edge weights are scaled, has taken the
largest weight over all edges, singletons included.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .circuits import CNOT, Circuit, ErrorModel, GateKind, _check_int, _decimal_int, _lines


class HgrMode(str, Enum):
    """hMETIS serialization dialects.

    PAPER_RAW:        header ``E N 1``, un-normalized integer edge weights,
                      trailing node weights (golden-file target).
    PAPER_NORMALIZED: same layout with weights scaled to max 1e6.
    STANDARD:         fmt code 11 so external solvers read both weight kinds.
    """

    PAPER_RAW = "paper-raw"
    PAPER_NORMALIZED = "paper-normalized"
    STANDARD = "standard"


class HgrFormatError(ValueError):
    """Malformed hMETIS-dialect input."""


@dataclass(frozen=True)
class Hyperedge:
    members: tuple[int, ...]
    weight: float


def _check_weights(weights, what: str) -> None:
    """Raise ValueError naming the first weight that is negative, NaN,
    infinite or an int past the float range. min and sum run in C; only when
    they fail is the weight looked for (a sum of finite weights that
    overflows finds none and passes)."""
    try:
        ok = min(weights, default=0) >= 0 and math.isfinite(sum(weights))
    except OverflowError:  # an int past the float range
        ok = False
    if not ok:
        for i, w in enumerate(weights):
            if not 0 <= w < math.inf:  # False for NaN too
                raise ValueError(
                    f"{what} {i} has weight {w!r}; a {what} weight must be finite and >= 0"
                )
            if w > sys.float_info.max:
                raise ValueError(f"{what} {i} has a weight past the float range")


@dataclass(frozen=True)
class Hypergraph:
    num_nodes: int
    node_weights: tuple[float, ...]
    hyperedges: tuple[Hyperedge, ...]

    def __post_init__(self):
        _check_int("num_nodes", self.num_nodes, 0)
        # stored as tuples, so a hypergraph built from lists is a value too:
        # hashable, and equal to its hgr read-back
        object.__setattr__(self, "node_weights", tuple(self.node_weights))
        if len(self.node_weights) != self.num_nodes:
            raise ValueError("one weight per node required")
        _check_weights(self.node_weights, "node")
        _check_weights([e.weight for e in self.hyperedges], "hyperedge")
        edges = []
        for e in self.hyperedges:
            if type(e.members) is not tuple:
                e = Hyperedge(tuple(e.members), e.weight)
            edges.append(e)
            if not e.members:
                raise ValueError("empty hyperedge")
            for v in e.members:
                if type(v) is not int:  # a float member breaks indexing and write_hgr
                    raise ValueError(f"hyperedge member must be an int, got {v!r}")
                if not 0 <= v < self.num_nodes:
                    raise ValueError(f"hyperedge member {v} out of range")
        object.__setattr__(self, "hyperedges", tuple(edges))

    @property
    def num_edges(self) -> int:
        return len(self.hyperedges)


def node_weight(kind: GateKind, model: ErrorModel) -> float:
    """10/eps for CNOT (10x criticality factor), 1/eps for everything else;
    eps is the rate `ErrorModel.charge` gives a one-qubit kind or CNOT, and
    eps_default_single for any other kind."""
    # a known mismatch with `charge` for SWAP, CCX and others; fixing it changes l's labels
    rate = model.charge(kind)[0] if kind.arity == 1 or kind is CNOT else "eps_default_single"
    factor = 10.0 if kind is CNOT else 1.0
    return factor / getattr(model, rate)


def gate_level_edge_weight(arity: int, eps: float) -> float:
    if arity < 2:
        raise ValueError("gate-level hyperedges exist only for multi-qubit gates")
    return 100.0 * arity / eps


def temporal_edge_weight(gates_on_qubit: int, model: ErrorModel) -> float:
    if gates_on_qubit < 2:
        raise ValueError("temporal chains require >= 2 gates on the qubit")
    return max(1.0, 100.0 * (gates_on_qubit // 2) / model.eps_h)


def circuit_to_hypergraph(circuit: Circuit, model: ErrorModel | None = None) -> Hypergraph:
    """Build the weighted hypergraph for a circuit.

    Gate-level hyperedges come first (in gate order), then one temporal
    chain per qubit hosting at least two gates (in qubit order).
    """
    model = model or ErrorModel()
    # Weights per kind, each computed once
    kinds = dict.fromkeys(g.kind for g in circuit.gates)
    node_w = {kind: node_weight(kind, model) for kind in kinds}
    gate_w = {kind: gate_level_edge_weight(kind.arity, getattr(model, model.charge(kind)[0]))
              for kind in kinds if kind.arity > 1}

    node_weights = []
    edges: list[Hyperedge] = []
    gates_per_qubit: list[list[int]] = [[] for _ in range(circuit.num_qubits)]
    for idx, gate in enumerate(circuit.gates):
        kind = gate.kind
        node_weights.append(node_w[kind])
        if kind in gate_w:
            edges.append(Hyperedge(members=(idx,), weight=gate_w[kind]))
        for q in gate.qubits:
            gates_per_qubit[q].append(idx)
    for members in gates_per_qubit:
        if len(members) >= 2:
            edges.append(
                Hyperedge(members=tuple(members), weight=temporal_edge_weight(len(members), model))
            )

    return Hypergraph(len(circuit.gates), tuple(node_weights), tuple(edges))


def scaled_edge_weight(weight: float, max_weight: float) -> int:
    """weight * 1e6 / max_weight, rounded, floored at 1; max_weight > 0.

    Where the product overflows (weight above about 1.8e302), both weights
    are first scaled by 2**-64, which is exact, so the result is the value
    the formula gives without overflow."""
    scaled = weight * 1e6
    if scaled == math.inf:
        return scaled_edge_weight(math.ldexp(weight, -64), math.ldexp(max_weight, -64))
    return max(1, round(scaled / max_weight))


def scaled_weights(hg: Hypergraph) -> list[int]:
    """Each hyperedge's weight by `scaled_edge_weight` against the largest
    over every hyperedge, singletons included; all 0 when no weight is
    positive."""
    weights = [e.weight for e in hg.hyperedges]
    max_w = max(weights, default=0)
    # few distinct weights in a circuit's hypergraph: scale each once
    scaled = {w: scaled_edge_weight(w, max_w) if max_w > 0 else 0 for w in set(weights)}
    return [scaled[w] for w in weights]


def normalize_weights(hg: Hypergraph) -> Hypergraph:
    """hg with its hyperedge weights as `scaled_weights` gives them."""
    edges = tuple(
        Hyperedge(members=e.members, weight=float(w))
        for e, w in zip(hg.hyperedges, scaled_weights(hg))
    )
    return Hypergraph(hg.num_nodes, hg.node_weights, edges)


def write_hgr(hg: Hypergraph, mode: HgrMode = HgrMode.PAPER_NORMALIZED) -> str:
    """Serialize to the hMETIS dialect (LF endings, 1-based node indices)."""
    mode = HgrMode(mode)
    if mode == HgrMode.PAPER_NORMALIZED:
        hg = normalize_weights(hg)
    fmt = "11" if mode == HgrMode.STANDARD else "1"
    lines = [f"{hg.num_edges} {hg.num_nodes} {fmt}"]
    for e in hg.hyperedges:
        members = " ".join(str(v + 1) for v in e.members)
        lines.append(f"{int(round(e.weight))} {members}")
    for w in hg.node_weights:
        lines.append(str(int(round(w))))
    return "\n".join(lines) + "\n"


def read_hgr(text: str) -> Hypergraph:
    """Parse any write_hgr mode.

    Integers are ASCII decimal digits, negative ones with a leading ``-``."""
    lines = [ln.strip() for ln in _lines(text) if ln.strip()]
    if not lines:
        raise HgrFormatError("empty input")
    header = lines[0].split()
    if len(header) not in (2, 3):
        raise HgrFormatError(f"malformed header {lines[0]!r}")
    try:
        num_edges, num_nodes = _decimal_int(header[0]), _decimal_int(header[1])
    except ValueError:
        raise HgrFormatError(f"malformed header {lines[0]!r}")
    if num_edges < 0 or num_nodes < 0:
        raise HgrFormatError(f"malformed header {lines[0]!r}")
    fmt = header[2] if len(header) == 3 else "0"
    if fmt not in ("1", "11"):
        raise HgrFormatError(f"unsupported fmt code {fmt!r}")
    if len(lines) - 1 < num_edges:
        raise HgrFormatError(
            f"expected {num_edges} hyperedge lines, found {len(lines) - 1}"
        )

    edges: list[Hyperedge] = []
    for ln in lines[1 : 1 + num_edges]:
        fieldvals = ln.split()
        if len(fieldvals) < 2:
            raise HgrFormatError(f"hyperedge line too short: {ln!r}")
        try:
            weight = _decimal_int(fieldvals[0])
            members = tuple(_decimal_int(t) - 1 for t in fieldvals[1:])
        except ValueError:
            raise HgrFormatError(f"bad integer in hyperedge line {ln!r}")
        if weight < 0:
            raise HgrFormatError(f"negative weight in hyperedge line {ln!r}")
        for v in members:
            if not 0 <= v < num_nodes:
                raise HgrFormatError(f"node index {v + 1} out of range")
        edges.append(Hyperedge(members=members, weight=float(weight)))

    weight_lines = lines[1 + num_edges :]
    if len(weight_lines) != num_nodes:
        raise HgrFormatError(
            f"expected {num_nodes} node weight lines, found {len(weight_lines)}"
        )
    try:
        node_weights = tuple(float(_decimal_int(ln)) for ln in weight_lines)
    except ValueError:
        raise HgrFormatError("bad integer in node weight section")
    return Hypergraph(num_nodes, node_weights, tuple(edges))
