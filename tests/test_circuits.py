import copy
import dataclasses
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcpart as q
from qcpart.circuits import CircuitParseError

from conftest import SPACES_NOT_LINE_ENDS


class TestGates:
    def test_builtin_arities(self):
        assert q.H.arity == 1
        assert q.CNOT.arity == 2
        assert q.SWAP.arity == 2
        assert q.CCX.arity == 3

    def test_gate_arity_mismatch_rejected(self):
        with pytest.raises(q.CircuitError):
            q.Gate(q.CNOT, (1,))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(q.CircuitError):
            q.cnot(2, 2)

    @pytest.mark.parametrize("index", [True, False, 1.0, 2.5, "1", None])
    def test_non_integer_qubit_rejected(self, index):
        # each of these used to construct and serialize to text such as
        # "h True" or "h 1.0", which parse_circuit rejects
        with pytest.raises(q.CircuitError, match=r"^qubit index must be an int, got "):
            q.h(index)
        with pytest.raises(q.CircuitError, match=r"^qubit index must be an int, got "):
            q.Gate(q.CNOT, [0, index])

    def test_gate_kind_respects_builtin_arity(self):
        with pytest.raises(q.CircuitError, match=r"^CNOT has fixed arity 2$"):
            q.GateKind("CNOT", 3)
        assert q.GateKind("CNOT", 2) is q.CNOT
        rz = q.GateKind("RZ", 1)
        assert rz.arity == 1
        # "2" < 1 used to raise TypeError
        with pytest.raises(q.CircuitError, match=r"^gate arity must be an integer >= 1, got '2'$"):
            q.GateKind("X", "2")


class TestInterning:
    """One GateKind per (name, arity), however it is made."""

    def test_construction(self):
        assert q.GateKind("RZZ", 2) is q.GateKind("RZZ", 2)
        assert q.GateKind("CNOT", 2) is q.CNOT
        assert q.GateKind("RZZ", 3) is not q.GateKind("RZZ", 2)
        with pytest.raises(q.CircuitError, match=r"^H has fixed arity 1$"):
            q.GateKind("H", 2)

    def test_identity_compare_and_hash(self):
        # the C-level object ones, not the dataclass-generated ones
        assert "__eq__" not in vars(q.GateKind) and "__hash__" not in vars(q.GateKind)
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.H.name = "X"

    def test_parsed_lines_share_the_kind(self):
        circuit = q.parse_circuit("qubits 3\ng RZZ 2 0 1\ng RZZ 2 1 2\ncx 0 1\n")
        first, second, cx = circuit.gates
        assert first is not second
        assert first.kind is second.kind is q.GateKind("RZZ", 2)
        assert cx.kind is q.CNOT

    @pytest.mark.parametrize("kind", [q.H, q.CCX, q.GateKind("RZZ", 2)], ids=["H", "CCX", "RZZ"])
    def test_copy_and_pickle_give_the_same_object(self, kind):
        assert copy.copy(kind) is kind
        assert copy.deepcopy(kind) is kind
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(kind, protocol)) is kind
        gate = q.Gate(kind, tuple(range(kind.arity)))
        assert copy.deepcopy(gate).kind is kind
        assert pickle.loads(pickle.dumps(gate)).kind is kind

    def test_replace(self):
        assert dataclasses.replace(q.H, name="X") is q.GateKind("X", 1)
        with pytest.raises(q.CircuitError, match=r"^H has fixed arity 1$"):
            dataclasses.replace(q.H, arity=2)

    def test_threads_making_one_new_kind_get_one_object(self):
        # more threads than cores, switching often, each making the same
        # fresh kinds; a lost race would leave two objects for one key
        names = [f"T{i}" for i in range(300)]
        made = [[] for _ in range(8)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda out=out: out.extend(
                q.GateKind(name, 2) for name in names)) for out in made]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old_interval)
        for kinds in made:
            assert len(kinds) == len(names)
            assert all(kind is q.GateKind(name, 2) for kind, name in zip(kinds, names))

    @pytest.mark.parametrize("arity", [True, 1.0])
    def test_integer_rule_before_the_lookup(self, arity):
        kind = q.GateKind("Z9", 1)
        with pytest.raises(q.CircuitError) as excinfo:
            q.GateKind("Z9", arity)
        assert str(excinfo.value) == f"gate arity must be an integer >= 1, got {arity!r}"
        assert kind.arity == 1 and type(kind.arity) is int


class TestCircuit:
    def test_out_of_range_qubit_rejected(self):
        for index in (2, -1, 5):
            with pytest.raises(q.CircuitError) as excinfo:
                q.Circuit(2, (q.h(0), q.cnot(1, index)))
            assert str(excinfo.value) == f"qubit {index} out of range for 2-qubit circuit"

    @pytest.mark.parametrize("count", [-2, -1, 2.5, True, "3"])
    def test_unreadable_qubit_count_rejected(self, count):
        # serialize_circuit would write e.g. "qubits -2", which parse_circuit rejects
        with pytest.raises(q.CircuitError, match=r"^qubit count must be an integer >= 0, got "):
            q.Circuit(count, ())

    def test_len(self, circuit_s):
        assert len(circuit_s) == 22

    def test_benchmark_sizes(self):
        s = q.benchmark_circuit("s")
        m = q.benchmark_circuit("m")
        l = q.benchmark_circuit("l")
        assert (s.num_qubits, len(s.gates)) == (6, 22)
        assert (m.num_qubits, len(m.gates)) == (10, 55)
        assert (l.num_qubits, len(l.gates)) == (24, 88)

    def test_unknown_benchmark(self):
        with pytest.raises(q.CircuitError):
            q.benchmark_circuit("xl")


class TestDepth:
    def test_empty_circuit(self):
        assert q.depth(q.Circuit(3)) == 0

    def test_parallel_gates_share_layer(self):
        c = q.Circuit(2, (q.h(0), q.h(1)))
        assert q.depth(c) == 1

    def test_chain(self):
        c = q.Circuit(3, (q.cnot(0, 1), q.cnot(1, 2), q.cnot(0, 2)))
        assert q.depth(c) == 3

    def test_benchmark_depth(self, circuit_s):
        assert q.depth(circuit_s) == 12


class TestSerialization:
    def test_round_trip(self, circuit_s):
        assert q.parse_circuit(q.serialize_circuit(circuit_s)) == circuit_s

    @settings(max_examples=200, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(
                # a built-in kind, or the name and arity of another kind
                st.one_of(
                    st.sampled_from([q.H, q.CNOT, q.SWAP, q.CCX]),
                    st.tuples(
                        st.one_of(st.sampled_from(["RZZ", "H", "CNOT"]), st.text()),
                        st.one_of(st.integers(0, 4), st.booleans(), st.floats(0, 4)),
                    ),
                ),
                st.lists(
                    st.one_of(st.integers(0, 5), st.booleans(), st.floats(0, 5)),
                    min_size=1, max_size=3,
                ),
            ),
            max_size=12,
        )
    )
    def test_every_gate_that_constructs_round_trips(self, specs):
        # True == 1 and 1.0 == 1, so a gate or kind holding them compares
        # equal to its integer twin; the round trip only holds if they never
        # construct, nor a name the text cannot carry, such as "a b"
        gates = []
        for kind, qubits in specs:
            try:
                if not isinstance(kind, q.GateKind):
                    kind = q.GateKind(*kind)
                gates.append(q.Gate(kind, qubits))
            except q.CircuitError:
                continue
        circuit = q.Circuit(6, tuple(gates))
        parsed = q.parse_circuit(q.serialize_circuit(circuit))
        assert parsed == circuit
        assert all(type(i) is int for g in circuit.gates for i in (g.kind.arity, *g.qubits))

    def test_comments_and_blanks(self):
        text = "# header\n\nqubits 2  # two wires\nh 0\ncx 0 1\n"
        c = q.parse_circuit(text)
        assert c == q.Circuit(2, (q.h(0), q.cnot(0, 1)))

    def test_custom_gate(self):
        c = q.parse_circuit("qubits 3\ng RZZ 2 0 2\n")
        assert c.gates[0].kind.name == "RZZ"
        assert c.gates[0].qubits == (0, 2)
        assert q.parse_circuit(q.serialize_circuit(c)) == c

    @pytest.mark.parametrize("name", ["a#b", "two words", "", "tab\tname", "line\nbreak", 5, None])
    def test_unreadable_custom_name_rejected_at_construction(self, name):
        # these used to construct, and serialize_circuit then raised (a bare
        # TypeError for 5)
        with pytest.raises(q.CircuitError) as excinfo:
            q.GateKind(name, 2)
        assert str(excinfo.value) == (
            f"gate name must be a non-empty str without whitespace or '#', got {name!r}"
        )

    @pytest.mark.parametrize("name, arity, fixed", [
        ("H", 2, 1), ("CNOT", 1, 2), ("SWAP", 3, 2), ("CCX", 2, 3),
    ])
    def test_builtin_name_at_other_arity_rejected_at_construction(self, name, arity, fixed):
        with pytest.raises(q.CircuitError) as excinfo:
            q.GateKind(name, arity)
        assert str(excinfo.value) == f"{name} has fixed arity {fixed}"

    def test_missing_header(self):
        with pytest.raises(CircuitParseError):
            q.parse_circuit("h 0\n")

    def test_unknown_mnemonic(self):
        with pytest.raises(CircuitParseError, match="line 2"):
            q.parse_circuit("qubits 2\nfoo 0\n")

    def test_qubit_out_of_range(self):
        for qubit in (5, 2, -1):
            with pytest.raises(CircuitParseError) as excinfo:
                q.parse_circuit(f"qubits 2\nh 1\ncx 0 {qubit}\n")
            assert str(excinfo.value) == f"line 3: qubit {qubit} out of range"

    @pytest.mark.parametrize("gate, message", [
        ("cx 0", "CNOT expects 2 qubits, got (0,)"),
        ("cx 0 0", "duplicate qubit in gate CNOT(0, 0)"),
    ])
    def test_bad_gate_names_its_line(self, gate, message):
        with pytest.raises(CircuitParseError) as excinfo:
            q.parse_circuit(f"qubits 2\nh 1\n{gate}\n")
        assert (excinfo.value.line, str(excinfo.value)) == (3, f"line 3: {message}")

    @pytest.mark.parametrize("text, message", [
        ("qubits x\n", "line 1: bad qubit count 'x'"),
        ("qubits -1\n", "line 1: qubit count must be >= 0"),
        ("qubits 2\ng foo\n", "line 2: expected 'g <name> <arity> q...'"),
        ("qubits 2\nh x\n", "line 2: bad integer in 'h x'"),
        ("# no header\n\n", "line 1: missing 'qubits N' header"),
    ], ids=["non-integer-count", "negative-count", "short-g-line", "non-integer-qubit",
            "missing-header"])
    def test_malformed_text_rejected(self, text, message):
        with pytest.raises(CircuitParseError) as excinfo:
            q.parse_circuit(text)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("text, message", [
        ("qubits 1_2\nh 1_0\ncx \u0663 +4\n", "line 1: bad qubit count '1_2'"),
        ("qubits +3\n", "line 1: bad qubit count '+3'"),
        ("qubits 12\nh 1_0\n", "line 2: bad integer in 'h 1_0'"),
        ("qubits 12\nh 1\ncx \u0663 4\n", "line 3: bad integer in 'cx \u0663 4'"),
        ("qubits 12\ncx 3 +4\n", "line 2: bad integer in 'cx 3 +4'"),
        ("qubits 12\nh \uff11\n", "line 2: bad integer in 'h \uff11'"),
        ("qubits 12\ng RZ +1 0\n", "line 2: bad integer in 'g RZ +1 0'"),
        ("qubits 12\nh -\n", "line 2: bad integer in 'h -'"),
    ], ids=["underscore-count", "plus-count", "underscore-qubit", "arabic-indic-digit",
            "plus-qubit", "fullwidth-digit", "plus-arity", "bare-minus"])
    def test_only_ascii_decimal_integers_are_read(self, text, message):
        # Python's int() reads each of these, so they used to parse
        with pytest.raises(CircuitParseError) as excinfo:
            q.parse_circuit(text)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("space", SPACES_NOT_LINE_ENDS)
    def test_space_inside_a_line_does_not_end_it(self, space):
        # the comment's tail is not read as a gate on a line of its own
        with pytest.raises(CircuitParseError) as excinfo:
            q.parse_circuit(f"qubits 2\nh 0 # a{space}b\ncx 0 5\n")
        assert str(excinfo.value) == "line 3: qubit 5 out of range"
        text = f"qubits 2\nh{space}0\ncx 0{space}1\n"
        assert q.parse_circuit(text) == q.Circuit(2, (q.h(0), q.cnot(0, 1)))

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_cr_lf_and_cr_end_lines_as_lf_does(self, circuit_s, end):
        text = q.serialize_circuit(circuit_s)
        assert q.parse_circuit(text.replace("\n", end)) == circuit_s
        with pytest.raises(CircuitParseError) as excinfo:
            q.parse_circuit(f"qubits 2{end}h 0{end}{end}cx 0 5{end}")
        assert str(excinfo.value) == "line 4: qubit 5 out of range"

    def test_names_and_comments_may_hold_any_character(self):
        # '_', '+' and non-ASCII text outside the integers leave them readable
        text = "qubits 3 # caf\u00e9 + x_y\ng my_gate+ 2 0 2\nh 1  # \u0663\ncx -0 1\n"
        c = q.parse_circuit(text)
        kind = q.GateKind("my_gate+", 2)
        assert c == q.Circuit(3, (q.Gate(kind, (0, 2)), q.h(1), q.cnot(0, 1)))

    def test_zero_arity_gate_kind(self):
        with pytest.raises(CircuitParseError, match=r"^line 2: gate arity must be an integer >= 1, got 0$"):
            q.parse_circuit("qubits 2\ng foo 0\n")

    def test_builtin_name_with_wrong_arity(self):
        with pytest.raises(CircuitParseError, match=r"^line 2: H has fixed arity 1$"):
            q.parse_circuit("qubits 2\ng H 2 0 1\n")
        with pytest.raises(CircuitParseError, match=r"^line 3: CNOT has fixed arity 2$"):
            q.parse_circuit("qubits 2\nh 0\ng CNOT 1 0\n")


class TestRepeatedLines:
    def test_repeated_lines_parse_as_gates_built_one_by_one(self):
        text = ("qubits 3\nh 0\ncx 0 1\n  h 0\t\ncx 0   1 # again\ng RZ 1 2\n"
                "h 0 # h\ng  RZ 1 2\ncx 0 1\nh 0\n")
        rz = q.GateKind("RZ", 1)
        c = q.parse_circuit(text)
        assert c == q.Circuit(3, (
            q.h(0), q.cnot(0, 1), q.h(0), q.cnot(0, 1), q.Gate(rz, (2,)),
            q.h(0), q.Gate(rz, (2,)), q.cnot(0, 1), q.h(0),
        ))
        assert q.parse_circuit(q.serialize_circuit(c)) == c
        # a line equal to an earlier one, once its comment is stripped and
        # its whitespace trimmed, shares that line's gate
        assert c.gates[0] is c.gates[2] is c.gates[5] is c.gates[8]
        assert c.gates[1] is c.gates[7]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(["", " ", "\t", "  "]),
                              st.sampled_from(["", "#", " # note", "#h 0"])),
                    max_size=30))
    def test_any_spacing_and_comment_gives_the_same_gates(self, picks):
        pool = [q.h(0), q.h(3), q.cnot(0, 1), q.cnot(1, 0), q.swap(2, 3), q.ccx(0, 1, 2)]
        body = q.serialize_circuit(q.Circuit(4, tuple(pool))).splitlines()[1:]
        lines = ["qubits 4"]
        for i, pad, comment in picks:
            lines.append(pad + body[i].replace(" ", pad + " ") + pad + comment)
        c = q.parse_circuit("\n".join(lines) + "\n")
        assert c == q.Circuit(4, tuple(pool[i] for i, _, _ in picks))
        assert q.parse_circuit(q.serialize_circuit(c)) == c

    @pytest.mark.parametrize("bad, message", [
        ("cx 0 5", "qubit 5 out of range"),
        ("cx 1 1", "duplicate qubit in gate CNOT(1, 1)"),
        ("h x", "bad integer in 'h x'"),
        ("foo 0", "unknown gate 'foo'"),
    ])
    def test_repeated_bad_line_reports_its_first_line(self, bad, message):
        text = f"qubits 2\nh 0\n{bad}\nh 0\n{bad}\n{bad}\n"
        with pytest.raises(CircuitParseError) as excinfo:
            q.parse_circuit(text)
        assert (excinfo.value.line, str(excinfo.value)) == (3, f"line 3: {message}")

    def test_header_line_repeated_below_is_a_bad_gate(self):
        with pytest.raises(CircuitParseError, match=r"^line 3: unknown gate 'qubits'$"):
            q.parse_circuit("qubits 2\nh 0\nqubits 2\n")


class TestErrorModel:
    def test_defaults(self):
        m = q.ErrorModel()
        assert m.eps_h == 0.001
        assert m.eps_cnot == 0.05
        assert m.ccx_cnot_equivalents == 6

    def test_rates_validated(self):
        with pytest.raises(q.CircuitError):
            q.ErrorModel(eps_cnot=0.0)
        with pytest.raises(q.CircuitError):
            q.ErrorModel(eps_h=1.5)

    @pytest.mark.parametrize("field, rate", [
        ("eps_h", "0.1"), ("eps_h", None), ("eps_cnot", True), ("eps_default_multi", [0.1]),
        ("eps_default_single", float("nan")),
    ])
    def test_rate_that_is_not_a_real_number_rejected(self, field, rate):
        # "0.1" and None used to raise a bare TypeError from the range compare
        with pytest.raises(q.CircuitError) as excinfo:
            q.ErrorModel(**{field: rate})
        assert str(excinfo.value) == f"{field} must be in (0, 1), got {rate!r}"

    @pytest.mark.parametrize("n", [-6, -1, True, 6.0, "6"])
    def test_ccx_cnot_equivalents_must_be_a_nonnegative_int(self, n):
        with pytest.raises(q.CircuitError, match="ccx_cnot_equivalents must be an integer >= 0"):
            q.ErrorModel(ccx_cnot_equivalents=n)

    def test_zero_ccx_cnot_equivalents_is_accepted(self):
        assert q.fidelity(0, 0, 0, {q.CCX: 1}, q.ErrorModel(ccx_cnot_equivalents=0)) == 1.0

    # (kind, ccx_cnot_equivalents, rate field, multiplicity); a kind built
    # apart with a built-in's name and arity is that built-in
    @pytest.mark.parametrize("kind, ccx, rate, times", [
        (q.H, 6, "eps_h", 1),
        (q.CNOT, 6, "eps_cnot", 1),
        (q.SWAP, 6, "eps_cnot", 3),
        (q.CCX, 6, "eps_cnot", 6),
        (q.CCX, 0, "eps_cnot", 0),
        (q.GateKind("RZ", 1), 6, "eps_default_single", 1),
        (q.GateKind("RZZ", 2), 6, "eps_default_multi", 1),
        (q.GateKind("G3", 3), 6, "eps_default_multi", 2),
        (q.GateKind("H", 1), 6, "eps_h", 1),
        (q.GateKind("CNOT", 2), 6, "eps_cnot", 1),
        (q.GateKind("SWAP", 2), 6, "eps_cnot", 3),
        (q.GateKind("CCX", 3), 4, "eps_cnot", 4),
    ], ids=["H", "CNOT", "SWAP", "CCX", "CCX-zero", "custom-1", "custom-2", "custom-3",
            "H-twin", "CNOT-twin", "SWAP-twin", "CCX-twin"])
    def test_charge(self, kind, ccx, rate, times):
        assert q.ErrorModel(ccx_cnot_equivalents=ccx).charge(kind) == (rate, times)


# Every argument that `_check_int` guards: the caller and argument (the test
# id), the name in the error, the lower bound or None, the exception type the
# caller raises, and a call that passes the value in
_INTEGER_ARGUMENTS = [
    ("GateKind.arity", "gate arity", 1, q.CircuitError, lambda v: q.GateKind("RZ", v)),
    ("Circuit.num_qubits", "qubit count", 0, q.CircuitError, lambda v: q.Circuit(v)),
    ("ErrorModel.ccx_cnot_equivalents", "ccx_cnot_equivalents", 0, q.CircuitError,
     lambda v: q.ErrorModel(ccx_cnot_equivalents=v)),
    ("Hypergraph.num_nodes", "num_nodes", 0, ValueError, lambda v: q.Hypergraph(v, (1.0,), ())),
    ("PartitionAssignment.k", "k", 1, ValueError, lambda v: q.PartitionAssignment((0,), v)),
    ("SolverConfig.k", "k", 1, ValueError, lambda v: q.SolverConfig(k=v)),
    ("SolverConfig.seed", "seed", None, ValueError, lambda v: q.SolverConfig(k=2, seed=v)),
    ("random_balanced_assignment.k", "k", 1, ValueError,
     lambda v: q.random_balanced_assignment(q.Hypergraph(2, (1.0, 1.0), ()), v, 0)),
    ("dynamic_k.num_ops", "num_ops", 0, ValueError, lambda v: q.dynamic_k(v, 4, 2)),
    ("dynamic_k.num_qubits", "num_qubits", 1, ValueError, lambda v: q.dynamic_k(10, v, 2)),
    ("dynamic_k.block_size", "block_size", 1, ValueError, lambda v: q.dynamic_k(10, 4, v)),
    ("BaselineConfig.block_size", "block_size", 1, ValueError, lambda v: q.BaselineConfig(v)),
    ("merge_partitions.threshold", "threshold", 1, ValueError, lambda v: q.merge_partitions([], v)),
    ("create_trimmed_partitions.labels", "label", 0, ValueError,
     lambda v: q.create_trimmed_partitions(q.Circuit(1, (q.h(0),)), [v])),
    ("random_balanced_assignment.seed", "seed", None, ValueError,
     lambda v: q.random_balanced_assignment(q.Hypergraph(2, (1.0, 1.0), ()), 2, v)),
    ("estimate_swaps.seed", "seed", None, ValueError, lambda v: q.estimate_swaps([], False, v)),
    ("fidelity.h_count", "h_count", 0, ValueError, lambda v: q.fidelity(v, 0, 0)),
    ("fidelity.cnot_count", "cnot_count", 0, ValueError, lambda v: q.fidelity(0, v, 0)),
    ("fidelity.swap_count", "swap_count", 0, ValueError, lambda v: q.fidelity(0, 0, v)),
    ("fidelity.other_gates-CCX", "other_gates['CCX']", 0, ValueError,
     lambda v: q.fidelity(0, 0, 0, {q.CCX: v})),
    ("fidelity.other_gates-custom", "other_gates['RZ']", 0, ValueError,
     lambda v: q.fidelity(0, 0, 0, {q.H: 1, q.GateKind("RZ", 1): v})),
]


class TestIntegerRule:
    @pytest.mark.parametrize("name, low, error, call, value", [
        pytest.param(name, low, error, call, value, id=f"{where}-{value!r}")
        for where, name, low, error, call in _INTEGER_ARGUMENTS
        for value in (True, 1.0) + (() if low is None else (low - 1,))
    ])
    def test_one_rule_for_every_integer_argument(self, name, low, error, call, value):
        # True and 1.0 pass a `>= low` test, so only the type test stops them
        with pytest.raises(ValueError) as excinfo:
            call(value)
        assert type(excinfo.value) is error
        bound = "" if low is None else f" >= {low}"
        assert str(excinfo.value) == f"{name} must be an integer{bound}, got {value!r}"
