import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcpart as q
from qcpart.hypergraph import (
    gate_level_edge_weight,
    node_weight,
    scaled_edge_weight,
    scaled_weights,
    temporal_edge_weight,
)

from conftest import SPACES_NOT_LINE_ENDS, assert_hgr_round_trip, edge_families


class TestWeights:
    def test_node_weights(self):
        m = q.ErrorModel()
        assert node_weight(q.CNOT, m) == 200.0
        assert node_weight(q.H, m) == 1000.0

    def test_gate_level_weight(self):
        assert gate_level_edge_weight(2, 0.05) == 4000.0
        with pytest.raises(ValueError):
            gate_level_edge_weight(1, 0.05)

    def test_swap_and_ccx_edges_weighted_at_the_cnot_rate(self):
        # metrics.fidelity charges SWAP and CCX as CNOTs at eps_cnot (0.05);
        # another multi-qubit kind keeps eps_default_multi
        model = q.ErrorModel(eps_default_multi=0.2)
        gates = (q.swap(0, 1), q.ccx(0, 1, 2), q.Gate(q.GateKind("CZ", 2), (1, 2)))
        hg = q.circuit_to_hypergraph(q.Circuit(3, gates), model)
        gate_level = [(e.members, e.weight) for e in hg.hyperedges if len(e.members) == 1]
        assert gate_level == [((0,), 4000.0), ((1,), 6000.0), ((2,), 1000.0)]

    @pytest.mark.parametrize("model", [
        q.ErrorModel(),
        q.ErrorModel(eps_h=0.003, eps_cnot=0.07, eps_default_single=0.5,
                     eps_default_multi=0.2, ccx_cnot_equivalents=4),
    ], ids=["default", "custom"])
    def test_weights_and_fidelity_read_one_charge(self, model):
        multi = [q.CNOT, q.SWAP, q.CCX, q.GateKind("CNOT", 2), q.GateKind("RZZ", 2),
                 q.GateKind("G3", 3), q.GateKind("G5", 5)]
        single = [q.H, q.GateKind("H", 1), q.GateKind("RZ", 1)]
        gates = tuple(q.Gate(kind, tuple(range(kind.arity))) for kind in multi)
        hg = q.circuit_to_hypergraph(q.Circuit(5, gates), model)
        edges = [e.weight for e in hg.hyperedges if len(e.members) == 1]
        for kind, edge in zip(multi, edges, strict=True):
            field, times = model.charge(kind)
            rate = getattr(model, field)
            assert edge == 100 * kind.arity / rate
            assert q.fidelity(0, 0, 0, {kind: 1}, model) == pytest.approx((1 - rate) ** times, rel=1e-12)
        for kind in single:
            rate = getattr(model, model.charge(kind)[0])
            assert node_weight(kind, model) == 1 / rate
            assert q.fidelity(0, 0, 0, {kind: 1}, model) == pytest.approx(1 - rate, rel=1e-12)
        # A known mismatch, pinned so that fixing it changes this test: the
        # node weight of SWAP, CCX and custom multi-qubit kinds reads
        # eps_default_single, not the rate their edge and fidelity read.
        for kind in multi:
            expected = 10 / model.eps_cnot if kind == q.CNOT else 1 / model.eps_default_single
            assert node_weight(kind, model) == expected

    def test_temporal_weight_floor_division(self):
        m = q.ErrorModel()
        assert temporal_edge_weight(9, m) == 400000.0
        assert temporal_edge_weight(4, m) == 200000.0
        assert temporal_edge_weight(2, m) == 100000.0
        with pytest.raises(ValueError):
            temporal_edge_weight(1, m)


class TestConstruction:
    def test_one_node_per_gate(self, circuit_s, hypergraph_s):
        assert hypergraph_s.num_nodes == len(circuit_s.gates)

    def test_edge_families(self):
        # gate-level singletons come first, in gate order, then temporal
        # chains in qubit order
        for name, num_singletons, num_chains in (("s", 10, 6), ("m", 35, 10), ("l", 64, 24)):
            circuit = q.benchmark_circuit(name)
            singletons, chains = edge_families(circuit)
            assert (len(singletons), len(chains)) == (num_singletons, num_chains)
            hg = q.circuit_to_hypergraph(circuit)
            assert [e.members for e in hg.hyperedges] == singletons + chains

    def test_single_gate_qubit_has_no_chain(self):
        c = q.Circuit(3, (q.h(0), q.h(0), q.h(1)))
        hg = q.circuit_to_hypergraph(c)
        assert [e.members for e in hg.hyperedges] == [(0, 1)]

    def test_kinds_built_apart_weigh_the_same(self):
        # The builder computes each kind's weights once; kinds are interned,
        # so one built apart, the built-in CNOT's included, is the same
        # object and gets the same weights.
        model = q.ErrorModel(eps_h=0.002, eps_cnot=0.04, eps_default_single=0.004,
                             eps_default_multi=0.08)
        kinds = [q.GateKind("CNOT", 2), q.GateKind("CNOT", 2), q.CNOT,
                 q.GateKind("RZ", 1), q.GateKind("RZ", 1), q.GateKind("CZ", 2), q.H]
        assert kinds[0] is kinds[1] is q.CNOT and kinds[3] is kinds[4]
        assert len({id(kind) for kind in kinds}) == 4
        gates = [q.Gate(kind, (0, 1, 2)[: kind.arity]) for kind in kinds]
        hg = q.circuit_to_hypergraph(q.Circuit(3, tuple(gates)), model)
        assert hg.node_weights == tuple(node_weight(g.kind, model) for g in gates)
        assert hg.node_weights[:3] == (250.0,) * 3
        gate_level = [(e.members, e.weight) for e in hg.hyperedges if len(e.members) == 1]
        assert gate_level == [((0,), 5000.0), ((1,), 5000.0), ((2,), 5000.0), ((5,), 2500.0)]

    def test_list_built_hypergraph_is_a_value(self):
        # the lists used to be kept, so this equality was False and hash
        # raised TypeError
        built = q.Hypergraph(2, [1.0, 1.0], [q.Hyperedge([0, 1], 5.0)])
        assert built == q.read_hgr(q.write_hgr(built, q.HgrMode.PAPER_RAW))
        assert hash(built) == hash(q.Hypergraph(2, (1.0, 1.0), (q.Hyperedge((0, 1), 5.0),)))

    def test_list_built_hyperedge_is_a_value(self):
        built = q.Hyperedge([0, 1], 5.0)
        assert built == q.Hyperedge((0, 1), 5.0)
        assert hash(built) == hash(q.Hyperedge((0, 1), 5.0))

    def test_list_built_dependency_dag_is_a_value(self):
        built = q.DependencyDag(2, [(0, 1, frozenset({0}))])
        assert built == q.DependencyDag(2, ((0, 1, frozenset({0})),))
        assert hash(built) == hash(q.DependencyDag(2, ((0, 1, frozenset({0})),)))

    def test_empty_circuit(self):
        hg = q.circuit_to_hypergraph(q.Circuit(2))
        assert hg.num_nodes == 0
        assert hg.num_edges == 0

    # Let through, each fails deep in `partition` in its own way: NaN in
    # `math.ceil`, infinity with OverflowError, a negative weight as "no
    # balanced bisection".
    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -1.0],
                             ids=["nan", "infinite", "negative"])
    def test_bad_node_weight_rejected(self, weight):
        with pytest.raises(ValueError) as excinfo:
            q.Hypergraph(3, (1.0, weight, 2.0), (q.Hyperedge((0, 1, 2), 1.0),))
        assert str(excinfo.value) == (
            f"node 1 has weight {weight!r}; a node weight must be finite and >= 0"
        )

    # Let through, a NaN weight fails in the solver's edge-weight scaling, and
    # negative ones give a negative km1 (labels (0, 1, 0, 1), km1 -2.0).
    @pytest.mark.parametrize("weight", [-1.0, float("-inf"), float("nan"), float("inf")],
                             ids=["negative", "minus-infinite", "nan", "infinite"])
    def test_bad_hyperedge_weight_rejected(self, weight):
        edges = (q.Hyperedge((0, 1), 1.0), q.Hyperedge((1, 2), weight))
        with pytest.raises(ValueError) as excinfo:
            q.Hypergraph(3, (1.0, 1.0, 2.0), edges)
        assert str(excinfo.value) == (
            f"hyperedge 1 has weight {weight!r}; a hyperedge weight must be finite and >= 0"
        )

    def test_negative_hyperedge_weights_rejected_before_solving(self):
        edges = (q.Hyperedge((0, 1), -1.0), q.Hyperedge((2, 3), -1.0))
        with pytest.raises(ValueError, match="hyperedge 0 has weight -1.0"):
            q.Hypergraph(4, (1.0,) * 4, edges)

    # An int past the float range compares below infinity, so it needs a check of its own.
    def test_int_node_weight_past_the_float_range_rejected(self):
        with pytest.raises(ValueError, match="node 0 has a weight past the float range"):
            q.Hypergraph(1, (10**400,), ())
        with pytest.raises(ValueError, match="node 1 has a weight past the float range"):
            q.Hypergraph(2, (1.0, 10**400), ())

    def test_int_hyperedge_weight_past_the_float_range_rejected(self):
        edges = (q.Hyperedge((0, 1), 2), q.Hyperedge((0, 1), 10**400))
        with pytest.raises(ValueError, match="hyperedge 1 has a weight past the float range"):
            q.Hypergraph(2, (1.0, 1.0), edges)

    @pytest.mark.parametrize("num_nodes, edges, message", [
        (2, (), "one weight per node required"),
        (3, (q.Hyperedge((), 1.0),), "empty hyperedge"),
        (3, (q.Hyperedge((0, 3), 1.0),), "hyperedge member 3 out of range"),
        (3, (q.Hyperedge((0, 1), 1.0), q.Hyperedge((2, -1), 1.0)),
         "hyperedge member -1 out of range"),
        # used to construct; partition and km1 then raised TypeError, and
        # write_hgr wrote a member read_hgr rejects
        (3, (q.Hyperedge((0, 1.0), 5.0), q.Hyperedge((1, 2), 3.0)),
         "hyperedge member must be an int, got 1.0"),
        (3, (q.Hyperedge((0, True), 1.0),), "hyperedge member must be an int, got True"),
        # 3.0 == len of the three weights, so it used to construct
        (3.0, (), "num_nodes must be an integer >= 0, got 3.0"),
    ], ids=["weight-count", "empty-edge", "member-out-of-range", "negative-member",
            "float-member", "bool-member", "float-node-count"])
    def test_malformed_hypergraph_rejected(self, num_nodes, edges, message):
        with pytest.raises(ValueError) as excinfo:
            q.Hypergraph(num_nodes, (1.0, 1.0, 1.0), edges)
        assert str(excinfo.value) == message

    def test_largest_float_weights_accepted(self):
        top = int(sys.float_info.max)
        hg = q.Hypergraph(2, (top, top), (q.Hyperedge((0, 1), top),))
        assert hg.node_weights == (top, top)


class TestNormalization:
    def test_scales_to_one_million(self, hypergraph_s):
        norm = q.normalize_weights(hypergraph_s)
        weights = [e.weight for e in norm.hyperedges]
        assert max(weights) == 1_000_000
        assert min(weights) >= 1
        # ordering of edges is preserved
        assert [e.members for e in norm.hyperedges] == [
            e.members for e in hypergraph_s.hyperedges
        ]

    def test_tiny_weight_floored_at_one(self):
        hg = q.Hypergraph(
            2,
            (1.0, 1.0),
            (
                q.Hyperedge((0,), 1e12),
                q.Hyperedge((1,), 0.5),
            ),
        )
        norm = q.normalize_weights(hg)
        assert norm.hyperedges[1].weight == 1.0

    # weight * 1e6 overflows to inf for a weight above about 1.8e302.
    @pytest.mark.parametrize("weight", [1e305, 1.7e308])
    def test_weight_whose_product_overflows(self, weight):
        hg = q.Hypergraph(2, (1.0, 1.0), (q.Hyperedge((0, 1), weight),))
        assert scaled_weights(hg) == [1_000_000]
        assert q.normalize_weights(hg).hyperedges[0].weight == 1_000_000
        asg = q.partition(hg, q.SolverConfig(k=2, imbalance=0.05, seed=1))
        assert sorted(asg.labels) == [0, 1]

    def test_overflowing_and_finite_products_side_by_side(self):
        edges = (q.Hyperedge((0, 1), 1e305), q.Hyperedge((0, 1), 1.7e308))
        hg = q.Hypergraph(2, (1.0, 1.0), edges)
        assert scaled_weights(hg) == [588, 1_000_000]  # 1e311 / 1.7e308
        assert [e.weight for e in q.normalize_weights(hg).hyperedges] == [588.0, 1_000_000.0]


_FINITE = st.floats(min_value=0.0, max_value=sys.float_info.max, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(weight=_FINITE, max_weight=_FINITE)
def test_finite_products_scale_as_the_plain_formula(weight, max_weight):
    weight, max_weight = sorted((weight, max_weight))
    if max_weight == 0 or math.isinf(weight * 1e6):
        return
    assert scaled_edge_weight(weight, max_weight) == max(1, round(weight * 1e6 / max_weight))


@settings(max_examples=300, deadline=None)
@given(
    weight=st.floats(min_value=sys.float_info.max / 1e6, max_value=sys.float_info.max),
    max_weight=st.floats(min_value=sys.float_info.max / 1e6, max_value=sys.float_info.max),
)
def test_overflowing_products_scale_as_without_overflow(weight, max_weight):
    """Halving both weights 600 times is exact and brings the product in
    range, so the plain formula there gives the value without overflow."""
    weight, max_weight = sorted((weight, max_weight))
    small, small_max = math.ldexp(weight, -600), math.ldexp(max_weight, -600)
    expected = max(1, round(small * 1e6 / small_max))
    assert scaled_edge_weight(weight, max_weight) == expected


class TestSerialization:
    def test_standard_mode_header(self, hypergraph_s):
        text = q.write_hgr(hypergraph_s, q.HgrMode.STANDARD)
        assert text.splitlines()[0] == "16 22 11"

    def test_round_trip(self):
        for name in ("s", "m", "l"):
            assert_hgr_round_trip(q.circuit_to_hypergraph(q.benchmark_circuit(name)))

    @pytest.mark.parametrize("space", SPACES_NOT_LINE_ENDS)
    def test_space_inside_a_line_does_not_end_it(self, space):
        hg = q.read_hgr(f"1 2 1\n5 1{space}2\n1\n1\n")
        assert hg == q.Hypergraph(2, (1.0, 1.0), (q.Hyperedge((0, 1), 5.0),))

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_cr_lf_and_cr_end_lines_as_lf_does(self, hypergraph_s, end):
        text = q.write_hgr(hypergraph_s, q.HgrMode.PAPER_RAW)
        assert q.read_hgr(text.replace("\n", end)) == q.read_hgr(text)

    def test_truncated_input_rejected(self, hypergraph_s):
        text = q.write_hgr(hypergraph_s, q.HgrMode.PAPER_RAW)
        truncated = "\n".join(text.splitlines()[:10]) + "\n"
        with pytest.raises(q.HgrFormatError):
            q.read_hgr(truncated)

    def test_bad_fmt_code(self):
        with pytest.raises(q.HgrFormatError):
            q.read_hgr("1 1 7\n5 1\n1\n")

    def test_out_of_range_member(self):
        # 1-based: 0 and 3 fall just outside 2 nodes
        for member in ("3", "0", "-1"):
            with pytest.raises(q.HgrFormatError) as excinfo:
                q.read_hgr(f"1 2 1\n5 1 {member}\n1\n1\n")
            assert str(excinfo.value) == f"node index {member} out of range"

    def test_negative_edge_weight_names_the_line(self):
        with pytest.raises(q.HgrFormatError) as excinfo:
            q.read_hgr("2 2 1\n5 1 2\n-3 2 1\n1\n1\n")
        assert str(excinfo.value) == "negative weight in hyperedge line '-3 2 1'"
        # a negative count in the header is a malformed header
        for text, header in (("0 -1 1\n", "0 -1 1"), ("-1 3 1\n1\n1\n1\n", "-1 3 1")):
            with pytest.raises(q.HgrFormatError) as excinfo:
                q.read_hgr(text)
            assert str(excinfo.value) == f"malformed header {header!r}"

    @pytest.mark.parametrize("text, message", [
        ("", "empty input"),
        ("1 2 1 5\n5 1 2\n1\n1\n", "malformed header '1 2 1 5'"),
        ("1 x 1\n5 1 2\n1\n1\n", "malformed header '1 x 1'"),
        ("1 2 1\n5\n1\n1\n", "hyperedge line too short: '5'"),
        ("1 2 1\n5 1 x\n1\n1\n", "bad integer in hyperedge line '5 1 x'"),
        ("1 2 1\n5 1 2\n1\n", "expected 2 node weight lines, found 1"),
        # a header that under-counts the nodes used to drop the extra weights
        ("1 2 1\n5 1 2\n1\n1\nfoo bar\n7\n", "expected 2 node weight lines, found 4"),
        ("1 2 1\n5 1 2\n1\n1.5\n", "bad integer in node weight section"),
        # Python's int() reads each of the following, so they used to parse
        ("1 2 1\n1_0 1 +2\n5\n\u0667\n", "bad integer in hyperedge line '1_0 1 +2'"),
        ("1 2 1\n10 1 +2\n5\n7\n", "bad integer in hyperedge line '10 1 +2'"),
        ("1 2 1\n10 1 \uff12\n5\n7\n", "bad integer in hyperedge line '10 1 \uff12'"),
        ("1 2 1\n10 1 2\n5\n\u0667\n", "bad integer in node weight section"),
        ("1 2 1\n10 1 2\n5_0\n7\n", "bad integer in node weight section"),
        ("1 +2 1\n10 1 2\n5\n7\n", "malformed header '1 +2 1'"),
    ], ids=["empty", "four-field-header", "non-integer-header", "one-field-edge",
            "non-integer-pin", "few-node-weights", "many-node-weights", "non-integer-node-weight",
            "underscore-edge-weight", "plus-pin", "fullwidth-pin", "arabic-indic-node-weight",
            "underscore-node-weight", "plus-header"])
    def test_malformed_input_rejected(self, text, message):
        with pytest.raises(q.HgrFormatError) as excinfo:
            q.read_hgr(text)
        assert str(excinfo.value) == message
