"""The qubit-indexed baseline, trim, merge, DAG, SWAP and gate-validation code
against references.

Golden SHA-256 digests pin the outputs of the earlier quadratic versions on
SplitMix64 circuits with many small parts; the from-scratch quadratic
versions are kept below as references for the Hypothesis tests, which
require identical results on random small inputs. The references hold a
partition as the eager code built it: a local-indexed subcircuit of new
``Gate`` objects plus its qubit map.
"""

from collections import Counter
from itertools import chain, islice
from typing import NamedTuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import qcpart as q
from qcpart.metrics import _WAIVE_BELOW, _waiver_draws
from qcpart.rng import _LANES, SplitMix64

from conftest import PROPERTY_SETTINGS, digest, random_h_cnot_circuit


# ---------------------------------------------------------------------------
# Quadratic reference versions
# ---------------------------------------------------------------------------


def reference_block_partition(circuit, config):
    blocks = []
    for idx, gate in enumerate(circuit.gates):
        if gate.kind.arity > config.block_size:
            raise ValueError(
                f"gate {gate.kind.name}{gate.qubits} exceeds block size "
                f"{config.block_size}"
            )
        chosen = None
        for pos, block in enumerate(blocks):
            if len(block["qubits"] | set(gate.qubits)) > config.block_size:
                continue
            blocked = any(
                later["qubits"] & set(gate.qubits) for later in blocks[pos + 1 :]
            )
            if not blocked:
                chosen = block
                break
        if chosen is None:
            chosen = {"qubits": set(), "gates": []}
            blocks.append(chosen)
        chosen["qubits"] |= set(gate.qubits)
        chosen["gates"].append(idx)
    return [block["gates"] for block in blocks]


class RefPart(NamedTuple):
    """A partition as the eager code held it."""

    subcircuit: q.Circuit
    qubit_map: dict


def _reference_partition(gates):
    """The eager build from global gates: the contiguous map of the qubits
    the gates act on, and one local ``Gate`` per gate."""
    active = set(chain.from_iterable([g.qubits for g in gates]))
    qubit_map = {g: i for i, g in enumerate(sorted(active))}
    local_gates = [q.Gate(g.kind, tuple([qubit_map[x] for x in g.qubits])) for g in gates]
    return RefPart(q.Circuit(len(qubit_map), local_gates), qubit_map)


def _reference_global_gates(part):
    """A partition's local gates translated back to global qubit indices."""
    inv = {local: glob for glob, local in part.qubit_map.items()}
    return [q.Gate(g.kind, tuple(inv[x] for x in g.qubits)) for g in part.subcircuit.gates]


def reference_trim(circuit, labels):
    label_seq = tuple(labels)
    return [
        _reference_partition(
            [g for g, label in zip(circuit.gates, label_seq) if label == part_id]
        )
        for part_id in sorted(set(label_seq))
    ]


def reference_remap(circuit, groups):
    return [_reference_partition([circuit.gates[idx] for idx in group]) for group in groups]


def reference_merge(parts, threshold):
    current = list(parts)
    merged = True
    while merged:
        merged = False
        next_round = []
        consumed = set()
        for i, p1 in enumerate(current):
            if i in consumed:
                continue
            best_j, best_shared = -1, 0
            for j in range(i + 1, len(current)):
                if j in consumed:
                    continue
                num_shared = len(set(p1.qubit_map) & set(current[j].qubit_map))
                if num_shared >= threshold and num_shared > best_shared:
                    best_shared = num_shared
                    best_j = j
            if best_j >= 0:
                next_round.append(
                    _reference_partition(
                        _reference_global_gates(p1) + _reference_global_gates(current[best_j])
                    )
                )
                consumed.add(i)
                consumed.add(best_j)
                merged = True
            else:
                next_round.append(p1)
                consumed.add(i)
        current = next_round
    return current


def reference_pairwise_cuts(parts):
    result = {}
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            shared = set(parts[i].qubit_map) & set(parts[j].qubit_map)
            if shared:
                result[(i, j)] = shared
    return result


def reference_dag_edges(parts):
    return tuple(
        (i, j, frozenset(shared)) for (i, j), shared in reference_pairwise_cuts(parts).items()
    )


def reference_estimate_swaps(parts, heuristic_on=False, seed=42):
    rng = SplitMix64(seed)
    misalignments = Counter()
    per_pair = {}
    attribution = [0] * len(parts)
    waived = 0
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            for qb in sorted(set(parts[i].qubit_map) & set(parts[j].qubit_map)):
                if parts[i].qubit_map[qb] == parts[j].qubit_map[qb]:
                    continue
                misalignments[qb] += 1
                if heuristic_on and misalignments[qb] > 3 and rng.next_float() < 0.6:
                    waived += 1
                    continue
                per_pair[(i, j)] = per_pair.get((i, j), 0) + 1
                attribution[i] += 1
    return q.SwapEstimate(sum(per_pair.values()), per_pair, tuple(attribution), waived)


def reference_validate_gate_counts(original, parts):
    def core(gates):
        return Counter((g.kind, g.qubits) for g in gates if g.kind != q.SWAP)

    partitioned = Counter()
    for p in parts:
        partitioned.update(core(_reference_global_gates(p)))
    return core(original.gates) == partitioned


# ---------------------------------------------------------------------------
# Canonical forms: sorted tuples, never the repr of a set or dict
# ---------------------------------------------------------------------------


def parts_key(parts):
    return tuple(
        (
            tuple(sorted(p.qubit_map.items())),
            tuple((g.kind.name, g.qubits) for g in p.subcircuit.gates),
        )
        for p in parts
    )


def dag_key(dag):
    return (dag.num_partitions, tuple((i, j, tuple(sorted(s))) for i, j, s in dag.edges))


def cuts_key(cuts):
    return tuple((pair, tuple(sorted(s))) for pair, s in sorted(cuts.items()))


def swaps_key(est):
    return (
        est.total,
        tuple(sorted(est.per_pair.items())),
        est.per_partition_attribution,
        est.waived,
    )


# ---------------------------------------------------------------------------
# Golden digests
# ---------------------------------------------------------------------------


def _chunk_labels(circuit: q.Circuit, k: int) -> list[int]:
    """Contiguous gate-order chunks by node-weight midpoint, as an external
    solver that cuts the gate sequence into k chunks would return them."""
    weights = [int(w) for w in q.circuit_to_hypergraph(circuit).node_weights]
    total = sum(weights)
    labels, before = [], 0
    for w in weights:
        labels.append(min(k - 1, k * (2 * before + w) // (2 * total)))
        before += w
    return labels


# (qubits, gates, chunk count): about ten gates per chunk, as with many parts.
GOLDEN_SIZES = ((8, 200, 20), (24, 600, 60), (48, 1200, 120))


def _golden_cases():
    """Per size: the circuit, its chunk-labelled parts and random-labelled parts."""
    rng = SplitMix64(3003)
    cases = []
    for nq, ng, k in GOLDEN_SIZES:
        circuit = random_h_cnot_circuit(rng, nq, ng)
        random_labels = [rng.next_below(k // 4) for _ in range(ng)]
        cases.append((f"{nq}q/{ng}g", circuit, _chunk_labels(circuit, k), random_labels))
    return cases


@pytest.fixture(scope="module")
def golden_cases():
    return _golden_cases()


def _merge_inputs(golden_cases):
    """Chunk- and random-labelled parts, which merge into one part at every
    threshold, and block-baseline parts of 2 and 3 qubits, which do not."""
    for name, circuit, chunks, random_labels in golden_cases:
        yield f"{name} chunks", q.create_trimmed_partitions(circuit, chunks)
        yield f"{name} random", q.create_trimmed_partitions(circuit, random_labels)
        for b in (2, 3):
            groups = q.block_partition(circuit, q.BaselineConfig(b))
            yield f"{name} blocks b={b}", q.remap_groups(circuit, groups)


class TestGoldenDigests:
    """Digests recorded from the quadratic implementations."""

    BLOCK_DIGEST = "e770f902aba411b144d4e683808761cb0c307c54af1c07f6f58d2a3cbb83f810"
    TRIM_DIGEST = "30f0af842288ebc9c76ee424388473380f3ce6c26fa5e77867a2f32a50dbaa02"
    MERGE_DIGEST = "5507ccc983616fd1611a327e926c9b0b716af5df1b7352fea960fd75748fcae2"
    DAG_DIGEST = "99f00177d0e590f90cd54e2d6afe3a41f177e0a5287c8530ded679c2467c4908"
    CUTS_DIGEST = "98b02cf3905299c4778e39105114ce7403a4f3a53866a5554402afc42c948f7a"
    SWAP_DIGEST = "60397c788f5d09f48bf78037d02c625d932bc80d41d6637735846b8f7fe69aa8"

    def test_block_groups(self, golden_cases):
        lines = []
        for name, circuit, _, _ in golden_cases:
            for b in range(2, 9):
                groups = q.block_partition(circuit, q.BaselineConfig(b))
                lines.append((name, b, tuple(map(tuple, groups))))
        assert digest(lines) == self.BLOCK_DIGEST

    def test_trimmed_parts(self, golden_cases):
        lines = []
        for name, circuit, chunks, random_labels in golden_cases:
            lines.append((name, "chunks", parts_key(q.create_trimmed_partitions(circuit, chunks))))
            lines.append((name, "random", parts_key(q.create_trimmed_partitions(circuit, random_labels))))
        assert digest(lines) == self.TRIM_DIGEST

    def test_merged_parts(self, golden_cases):
        lines = []
        for name, parts in _merge_inputs(golden_cases):
            for threshold in (1, 2, 3):
                lines.append((name, threshold, parts_key(q.merge_partitions(parts, threshold))))
        assert digest(lines) == self.MERGE_DIGEST

    def test_dag_edges(self, golden_cases):
        lines = []
        for name, parts in _merge_inputs(golden_cases):
            lines.append((name, dag_key(q.build_dependency_graph(parts))))
            merged = q.merge_partitions(parts, 2)
            lines.append((name, dag_key(q.build_dependency_graph(merged))))
        assert digest(lines) == self.DAG_DIGEST

    def test_pairwise_cuts(self, golden_cases):
        lines = []
        for name, circuit, chunks, _ in golden_cases:
            parts = q.create_trimmed_partitions(circuit, chunks)
            cuts = {(i, j): set(s) for i, j, s in q.build_dependency_graph(parts).edges}
            lines.append((name, cuts_key(cuts), sorted(q.cut_qubits(parts))))
        assert digest(lines) == self.CUTS_DIGEST

    def test_swap_estimates(self, golden_cases):
        lines = []
        for name, circuit, chunks, _ in golden_cases:
            baseline = q.remap_groups(circuit, q.block_partition(circuit, q.BaselineConfig(8)))
            trimmed = q.create_trimmed_partitions(circuit, chunks)
            for label, parts in (("baseline", baseline), ("chunks", trimmed)):
                for heuristic_on in (False, True):
                    for seed in (0, 42):
                        est = q.estimate_swaps(parts, heuristic_on=heuristic_on, seed=seed)
                        lines.append((name, label, heuristic_on, seed, swaps_key(est)))
        assert digest(lines) == self.SWAP_DIGEST


# ---------------------------------------------------------------------------
# Equivalence with the references on random small inputs
# ---------------------------------------------------------------------------


@st.composite
def labelled_circuits(draw, max_qubits=8, max_gates=40):
    """A circuit of H, CNOT and CCX gates plus a per-gate label vector."""
    num_qubits = draw(st.integers(min_value=3, max_value=max_qubits))
    gates = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_gates))):
        kind = draw(st.sampled_from([q.H, q.CNOT, q.CNOT, q.CCX]))
        qubits = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_qubits - 1),
                min_size=kind.arity,
                max_size=kind.arity,
                unique=True,
            )
        )
        gates.append(q.Gate(kind, tuple(qubits)))
    k = draw(st.integers(min_value=1, max_value=12))
    labels = draw(
        st.lists(st.integers(min_value=0, max_value=k - 1), min_size=len(gates), max_size=len(gates))
    )
    return q.Circuit(num_qubits, tuple(gates)), labels


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@PROPERTY_SETTINGS
@given(case=labelled_circuits(), block_size=st.integers(min_value=1, max_value=6))
def test_block_partition_matches_reference(case, block_size):
    circuit, _ = case
    config = q.BaselineConfig(block_size)
    assert _outcome(q.block_partition, circuit, config) == _outcome(
        reference_block_partition, circuit, config
    )


@PROPERTY_SETTINGS
@given(case=labelled_circuits(), threshold=st.integers(min_value=1, max_value=4))
def test_trim_and_merge_match_reference(case, threshold):
    circuit, labels = case
    parts = q.create_trimmed_partitions(circuit, labels)
    assert parts_key(parts) == parts_key(reference_trim(circuit, labels))
    merged = q.merge_partitions(parts, threshold)
    assert parts_key(merged) == parts_key(reference_merge(parts, threshold))


@pytest.fixture(scope="module")
def dense_merge_inputs():
    """Many-parts density, beyond the Hypothesis sizes: a 64-qubit,
    4000-gate circuit cut into 400 gate-order chunks, and its block-baseline
    parts of 2 qubits (about 2000 parts) and of 8."""
    circuit = random_h_cnot_circuit(SplitMix64(9009), 64, 4000)
    inputs = {"chunks k=400": q.create_trimmed_partitions(circuit, _chunk_labels(circuit, 400))}
    for b in (2, 8):
        groups = q.block_partition(circuit, q.BaselineConfig(b))
        inputs[f"blocks b={b}"] = q.remap_groups(circuit, groups)
    return inputs


@pytest.mark.parametrize("name", ["chunks k=400", "blocks b=2", "blocks b=8"])
def test_dense_merges_match_reference(dense_merge_inputs, name):
    parts = dense_merge_inputs[name]
    for threshold in (1, 2, 3):
        merged = q.merge_partitions(parts, threshold)
        assert parts_key(merged) == parts_key(reference_merge(parts, threshold))


def _reference_depth(circuit):
    """Longest chain of gates that each share a qubit with the one before."""
    layers = []
    for n, g in enumerate(circuit.gates):
        earlier = [layers[m] for m in range(n) if set(circuit.gates[m].qubits) & set(g.qubits)]
        layers.append(1 + max(earlier, default=0))
    return max(layers, default=0)


def reference_partition_metrics(part, swap_attributed):
    """Per-partition counts, depth and fidelity read from the subcircuit."""
    kinds = Counter(g.kind for g in part.subcircuit.gates)
    h_count = kinds.pop(q.H, 0)
    cnot_count = kinds.pop(q.CNOT, 0)
    return q.PartitionMetrics(
        gate_count=len(part.subcircuit.gates),
        depth=_reference_depth(part.subcircuit),
        h_count=h_count,
        cnot_count=cnot_count,
        swap_attributed=swap_attributed,
        fidelity=q.fidelity(h_count, cnot_count, swap_attributed, kinds),
    )


@PROPERTY_SETTINGS
@given(
    case=labelled_circuits(),
    block_size=st.integers(min_value=3, max_value=5),
    threshold=st.integers(min_value=1, max_value=4),
    swaps=st.integers(min_value=0, max_value=5),
)
def test_partitions_match_eager_reference(case, block_size, threshold, swaps):
    """Trimmed, remapped and merged parts read as the eager ones: the same
    subcircuit and map, and the same metrics and validation. Each map holds
    exactly its gates' qubits, in ascending order, at locals 0..n-1."""
    circuit, labels = case
    groups = q.block_partition(circuit, q.BaselineConfig(block_size))
    trimmed = q.create_trimmed_partitions(circuit, labels)
    ref_trimmed = reference_trim(circuit, labels)
    for parts, refs in (
        (trimmed, ref_trimmed),
        (q.remap_groups(circuit, groups), reference_remap(circuit, groups)),
        (q.merge_partitions(trimmed, threshold), reference_merge(ref_trimmed, threshold)),
    ):
        assert len(parts) == len(refs)
        for p, r in zip(parts, refs):
            globals_ = list(p.qubit_map)
            assert set(globals_) == {x for g in p.gates for x in g.qubits}
            assert globals_ == sorted(globals_)
            assert list(p.qubit_map.values()) == list(range(len(globals_)))
            assert p.subcircuit == r.subcircuit
            assert p.qubit_map == r.qubit_map
            assert q.partition_metrics(p, swaps) == reference_partition_metrics(r, swaps)
        for drop in (0, 1):  # all parts, then all but the first
            expected = reference_validate_gate_counts(circuit, refs[drop:])
            assert q.validate_gate_counts(circuit, parts[drop:]) is expected


@PROPERTY_SETTINGS
@given(
    case=labelled_circuits(),
    block_size=st.integers(min_value=3, max_value=5),
    threshold=st.integers(min_value=1, max_value=4),
)
def test_partitions_share_the_circuits_gates(case, block_size, threshold):
    """Every gate of a trimmed, remapped or merged part is the circuit's own
    ``Gate`` object, and each circuit gate is in exactly one part."""
    circuit, labels = case
    own = sorted(map(id, circuit.gates))
    trimmed = q.create_trimmed_partitions(circuit, labels)
    for part, part_id in zip(trimmed, sorted(set(labels))):
        at = [g for g, label in zip(circuit.gates, labels) if label == part_id]
        assert len(part.gates) == len(at) and all(a is b for a, b in zip(part.gates, at))
    groups = q.block_partition(circuit, q.BaselineConfig(block_size))
    for part, group in zip(q.remap_groups(circuit, groups), groups):
        assert len(part.gates) == len(group)
        assert all(g is circuit.gates[idx] for g, idx in zip(part.gates, group))
    merged = q.merge_partitions(trimmed, threshold)
    assert sorted(id(g) for p in merged for g in p.gates) == own


@PROPERTY_SETTINGS
@given(
    case=labelled_circuits(),
    block_size=st.integers(min_value=3, max_value=5),
    heuristic_on=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_overlap_consumers_match_reference(case, block_size, heuristic_on, seed):
    circuit, labels = case
    baseline = q.remap_groups(circuit, q.block_partition(circuit, q.BaselineConfig(block_size)))
    for parts in (baseline, q.create_trimmed_partitions(circuit, labels)):
        assert q.cut_qubits(parts) == set().union(*reference_pairwise_cuts(parts).values())
        assert q.build_dependency_graph(parts).edges == reference_dag_edges(parts)
        est = q.estimate_swaps(parts, heuristic_on=heuristic_on, seed=seed)
        assert swaps_key(est) == swaps_key(reference_estimate_swaps(parts, heuristic_on, seed))


def test_waiver_draws_follow_pair_then_qubit_order():
    """Three qubits are misaligned together in the same pairs, so once each
    passes its third misalignment the waiver draws alternate between qubits
    inside one (i, j) pair; drawing in (qubit, i, j) or (i, qubit, j) order
    instead waives other costs."""
    shapes = ((5, 6, 7), (0, 5, 6, 7), (0, 1, 5, 6, 7))  # locals of 5-7 differ
    parts = [
        q.Partition([q.h(g) for g in shapes[n % 3]]) for n in range(12)
    ]
    for seed in range(10):
        est = q.estimate_swaps(parts, heuristic_on=True, seed=seed)
        ref = reference_estimate_swaps(parts, True, seed)
        assert est.waived > 0
        assert swaps_key(est) == swaps_key(ref)
        assert list(est.per_pair.items()) == list(ref.per_pair.items())


def test_waiver_threshold_is_the_first_u64_at_or_above_0_6():
    T = _WAIVE_BELOW
    assert (T - 1) / 2**64 < 0.6 <= T / 2**64


@PROPERTY_SETTINGS
@given(u=st.integers(min_value=0, max_value=2**64 - 1))
@example(u=_WAIVE_BELOW - 1)
@example(u=_WAIVE_BELOW)
@example(u=_WAIVE_BELOW + 1)
def test_integer_waiver_draw_matches_float_draw(u):
    assert (u < _WAIVE_BELOW) == (u / 2**64 < 0.6)


@pytest.mark.parametrize("name", ["blocks b=8", "chunks k=400"])
@pytest.mark.parametrize("seed", [0, 42])
def test_dense_waiver_matches_reference(dense_merge_inputs, name, seed):
    """Many-parts waiver streams, about 63k draws on the 438 parts of b=8 and
    about 186k on the 400 chunks, so most flags come from later blocks."""
    parts = dense_merge_inputs[name]
    est = q.estimate_swaps(parts, heuristic_on=True, seed=seed)
    assert est.waived > 10 * _LANES
    assert swaps_key(est) == swaps_key(reference_estimate_swaps(parts, True, seed))


def _waiver_block_ends():
    """The draw count at the end of each of the waiver stream's first
    blocks: the growing ones from 64 draws, then four of the largest size."""
    ends, size, largest = [], 64, 0
    while largest < 4:
        ends.append(size + (ends[-1] if ends else 0))
        largest += size == _LANES
        size = min(2 * size, _LANES)
    return ends


WAIVER_BLOCK_ENDS = _waiver_block_ends()


@PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    crossings=st.integers(min_value=0, max_value=len(WAIVER_BLOCK_ENDS) - 1),
    data=st.data(),
)
def test_waiver_draws_match_scalar_draws(seed, crossings, data):
    """A stream that ends inside block ``crossings`` (from 0) crosses that
    many block boundaries, up to three between blocks of the largest size."""
    start = WAIVER_BLOCK_ENDS[crossings - 1] if crossings else 0
    length = data.draw(st.integers(min_value=start + 1, max_value=WAIVER_BLOCK_ENDS[crossings]))
    rng = SplitMix64(seed)
    assert list(islice(_waiver_draws(seed), length)) == [rng.next_u64() for _ in range(length)]


def _unshift(y, s):
    """Inverse of x -> x ^ (x >> s) on 64-bit words."""
    x = y
    for _ in range(64 // s):
        x = y ^ (x >> s)
    return x


def _seed_drawing(value, t):
    """The seed whose draw number t (from 0) is ``value``: the splitmix64
    finalizer is a bijection, so invert it and step the state back."""
    z = _unshift(value, 31)
    z = _unshift(z * pow(0x94D049BB133111EB, -1, 2**64) % 2**64, 27)
    z = _unshift(z * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64, 30)
    return (z - (t + 1) * 0x9E3779B97F4A7C15) % 2**64


# the first draw, the last and first draw at each block boundary, and the
# last draw of the fourth largest block
WAIVER_EDGE_DRAWS = sorted(
    {0, WAIVER_BLOCK_ENDS[-1] - 1}
    | {t for end in WAIVER_BLOCK_ENDS[:-1] for t in (end - 1, end)}
)


@pytest.mark.parametrize("value", [_WAIVE_BELOW - 1, _WAIVE_BELOW], ids=["waived", "kept"])
@pytest.mark.parametrize("t", WAIVER_EDGE_DRAWS)
def test_waiver_flags_at_draws_equal_to_the_threshold(t, value):
    """Random draws almost never land on the threshold or just below it;
    these seeds put draw t exactly there, where the integer test must still
    decide as ``next_float() < 0.6``."""
    seed = _seed_drawing(value, t)
    draws = list(islice(_waiver_draws(seed), t + 1))
    assert draws[t] == value
    rng = SplitMix64(seed)
    assert [u < _WAIVE_BELOW for u in draws] == [rng.next_float() < 0.6 for _ in range(t + 1)]


@pytest.mark.parametrize("end", WAIVER_BLOCK_ENDS)
@pytest.mark.parametrize("seed", [0, 2**64 - 1, 0x0123456789ABCDEF])
def test_waiver_draws_continue_after_whole_blocks(seed, end):
    """The draws on either side of a block boundary are the scalar ones, so
    each block starts where as many ``next_u64`` calls would leave the state."""
    scalar = SplitMix64(seed)
    for _ in range(end - 1):
        scalar.next_u64()
    expected = [scalar.next_u64() for _ in range(2)]
    assert list(islice(_waiver_draws(seed), end - 1, end + 1)) == expected


def _rebuilt(parts, index, global_gates):
    """parts with part ``index`` rebuilt from global gates (appended if new)."""
    parts = list(parts)
    rebuilt = q.Partition(global_gates)
    if index == len(parts):
        parts.append(rebuilt)
    else:
        parts[index] = rebuilt
    return parts


CORRUPTIONS = ("none", "drop", "copy", "move", "retype", "swap")


def _corrupt(parts, circuit, how, data):
    """(corrupted parts, the validation result they must give)."""
    gated = [i for i, p in enumerate(parts) if p.gates]
    if how == "none" or not gated:
        return list(parts), True
    i = data.draw(st.sampled_from(gated))
    part = parts[i]
    gates = list(part.gates)
    pos = data.draw(st.integers(min_value=0, max_value=len(gates) - 1))
    if how == "drop":
        del gates[pos]
        return _rebuilt(parts, i, gates), False
    if how == "copy":
        j = data.draw(st.integers(min_value=0, max_value=len(parts)).filter(lambda j: j != i))
        target = list(parts[j].gates) if j < len(parts) else []
        return _rebuilt(parts, j, target + [gates[pos]]), False
    if how == "move":
        gate = gates[pos]
        free = [x for x in range(circuit.num_qubits) if x not in gate.qubits]
        if not free:
            return list(parts), True
        slot = data.draw(st.integers(min_value=0, max_value=gate.kind.arity - 1))
        qubits = list(gate.qubits)
        qubits[slot] = data.draw(st.sampled_from(free))
        gates[pos] = q.Gate(gate.kind, tuple(qubits))
        return _rebuilt(parts, i, gates), False
    if how == "retype":
        h_at = [n for n, g in enumerate(gates) if g.kind == q.H]
        if not h_at:
            return list(parts), True
        n = data.draw(st.sampled_from(h_at))
        gates[n] = q.Gate(q.GateKind("RX", 1), gates[n].qubits)
        return _rebuilt(parts, i, gates), False
    pair = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=circuit.num_qubits - 1),
            min_size=2, max_size=2, unique=True,
        )
    )
    gates.insert(pos, q.swap(*pair))
    return _rebuilt(parts, i, gates), True


@PROPERTY_SETTINGS
@given(
    case=labelled_circuits(),
    block_size=st.integers(min_value=3, max_value=5),
    how=st.sampled_from(CORRUPTIONS),
    data=st.data(),
)
def test_validate_gate_counts_matches_reference(case, block_size, how, data):
    circuit, labels = case
    baseline = q.remap_groups(circuit, q.block_partition(circuit, q.BaselineConfig(block_size)))
    for parts in (baseline, q.create_trimmed_partitions(circuit, labels)):
        corrupted, expected = _corrupt(parts, circuit, how, data)
        assert q.validate_gate_counts(circuit, corrupted) is expected
        assert reference_validate_gate_counts(circuit, corrupted) is expected


def _with_ccx_as(circuit, kind):
    return q.Circuit(
        circuit.num_qubits,
        tuple(q.Gate(kind, g.qubits) if g.kind == q.CCX else g for g in circuit.gates),
    )


@PROPERTY_SETTINGS
@given(case=labelled_circuits())
def test_validate_gate_counts_matches_custom_kinds_built_apart(case):
    circuit, labels = case
    # kinds are interned: one built apart is the same object, and validates as it
    kind, other = q.GateKind("U3", 3), q.GateKind("U3", 3)
    assert kind is other
    original = _with_ccx_as(circuit, kind)
    parts = q.create_trimmed_partitions(_with_ccx_as(circuit, other), labels)
    assert q.validate_gate_counts(original, parts) is True
    assert reference_validate_gate_counts(original, parts) is True
    # a kind of the same name at another arity is another kind
    for i, part in enumerate(parts):
        gates = list(part.gates)
        for n, g in enumerate(gates):
            if g.kind is other:
                gates[n] = q.Gate(q.GateKind("U3", 2), g.qubits[:2])
                changed = _rebuilt(parts, i, gates)
                assert q.validate_gate_counts(original, changed) is False
                assert reference_validate_gate_counts(original, changed) is False
                return
