"""Seeded input generation: circuits in qcpart's text format.

Every draw comes from a ``SplitMix64`` the caller passes in, so one
workload seed always yields the same circuits and solver seeds.
"""

from __future__ import annotations


def synthetic_circuit(rng, num_qubits: int, num_gates: int) -> str:
    """A random circuit as text.

    Each gate is, with equal probability, H on a uniform qubit or CNOT on a
    uniform ordered pair of distinct qubits.
    """
    lines = [f"qubits {num_qubits}"]
    for _ in range(num_gates):
        if rng.next_below(2) == 0:
            lines.append(f"h {rng.next_below(num_qubits)}")
        else:
            control = rng.next_below(num_qubits)
            target = rng.next_below(num_qubits - 1)
            if target >= control:
                target += 1
            lines.append(f"cx {control} {target}")
    return "\n".join(lines) + "\n"


def solver_seed(rng) -> int:
    """A solver seed drawn from the workload's stream."""
    return rng.next_below(2**31)
