"""Block-size-driven baseline partitioner and fixture replay.

The live grouping heuristic is a stand-in for stream-style block
partitioners: gates are packed into the earliest open block with qubit
capacity, guarded so a gate never jumps behind a later block that already
touched one of its qubits. Published reference partitions are replayed
through JSON fixtures instead.

The guard reads a per-qubit index, ``last[q]`` (the latest block holding
qubit q), so a gate scans only the blocks from ``max(last[q])`` onwards
instead of testing every block against every later one: O(blocks after that
position) per gate rather than O(blocks^2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .circuits import Circuit, _check_int
from .pipeline import Partition


class FixtureError(ValueError):
    """Invalid gate-index fixture."""


@dataclass(frozen=True)
class BaselineConfig:
    block_size: int  # max distinct qubits per block

    def __post_init__(self):
        _check_int("block_size", self.block_size, 1)


def block_partition(circuit: Circuit, config: BaselineConfig) -> list[list[int]]:
    """Greedy streaming grouping of gate indices into qubit-capacity blocks.

    A gate joins the earliest open block whose qubit set stays within
    block_size, unless a block opened later already contains a gate on any
    of its qubits (which would reorder causally dependent gates).
    """
    size = config.block_size
    blocks: list[list[int]] = []  # gate indices per block
    block_qubits: list[set[int]] = []
    last = [0] * circuit.num_qubits  # index of the latest block holding each qubit
    for idx, gate in enumerate(circuit.gates):
        qubits = gate.qubits
        if gate.kind.arity > size:
            raise ValueError(f"gate {gate.kind.name}{qubits} exceeds block size {size}")
        # Joining a block before the latest one holding any of the gate's
        # qubits would reorder causally dependent gates.
        start = 0
        for q in qubits:
            if last[q] > start:
                start = last[q]
        chosen = len(blocks)
        for pos in range(start, len(blocks)):
            held = block_qubits[pos]
            new = 0
            for q in qubits:
                if q not in held:
                    new += 1
            if len(held) + new <= size:
                chosen = pos
                break
        if chosen == len(blocks):
            blocks.append([])
            block_qubits.append(set())
        blocks[chosen].append(idx)
        block_qubits[chosen].update(qubits)
        for q in qubits:
            last[q] = chosen
    return blocks


def _check_groups(circuit: Circuit, groups: list[list[int]]) -> None:
    """Raise FixtureError for a gate index out of range or in two groups."""
    seen: set[int] = set()
    for group in groups:
        for idx in group:
            if not 0 <= idx < len(circuit.gates):
                raise FixtureError(
                    f"gate index {idx} out of range for {len(circuit.gates)} gates"
                )
            if idx in seen:
                raise FixtureError(f"gate index {idx} appears in more than one group")
            seen.add(idx)


def remap_groups(circuit: Circuit, groups: list[list[int]]) -> list[Partition]:
    """Apply the sorted-contiguous local re-mapping to each gate-index group."""
    _check_groups(circuit, groups)
    return [Partition([circuit.gates[idx] for idx in group]) for group in groups]


def load_fixture(text: str, circuit: Circuit) -> list[list[int]]:
    """Parse a JSON fixture: {"partitions": [[gate indices...], ...]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FixtureError(f"invalid JSON: {exc}")
    groups = doc.get("partitions") if isinstance(doc, dict) else doc
    if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
        raise FixtureError("fixture must hold a list of gate-index lists")
    for group in groups:
        for idx in group:
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise FixtureError(f"non-integer gate index {idx!r}")
    _check_groups(circuit, groups)
    return groups


def builtin_fixture_text(name: str) -> str:
    """Text of a fixture shipped with the package (e.g. 'quick_s')."""
    return resources.files("qcpart").joinpath(f"data/{name}.json").read_text()
