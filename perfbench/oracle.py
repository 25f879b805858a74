"""Exact feasibility oracle for the partitioner's balance constraint.

An instance (node weights, k, imbalance) is feasible when the nodes can be
split into k non-empty parts whose weights all stay within
``(1 + imbalance) * ceil(total / k)``, the cap ``qcpart.check_balance``
applies. Parts must be non-empty because the internal solver rejects an
empty side. Gate order does not constrain the partitioner, so this is bin
packing.

qcpart's node weights come in two classes under the default error model:
1000 for H, SWAP and CCX and 200 for CNOT. The heavy weight is a whole
multiple r of the light one, so a part's weight is a whole number of light
units and its heavy nodes only use up r units each. Then the packing is
feasible exactly when the heavy nodes fit by count, all units fit in k
caps, and there are at least k nodes (one per part).
"""

from __future__ import annotations

import math
from collections import Counter


def balance_cap(weights, k: int, imbalance: float) -> float:
    """The cap qcpart.check_balance uses, computed the same way."""
    return (1.0 + imbalance) * math.ceil(sum(weights) / k)


def _units_within(cap: float, unit: float) -> int:
    """Largest u with u * unit <= cap, exact for the float comparison."""
    u = int(cap // unit)
    while (u + 1) * unit <= cap:
        u += 1
    while u > 0 and u * unit > cap:
        u -= 1
    return u


def feasible(weights, k: int, imbalance: float) -> bool:
    """True iff some assignment of the nodes to k non-empty parts is balanced.

    Raises ValueError unless there are at most two distinct node weights and
    the heavier is a whole multiple of the lighter.
    """
    weights = list(weights)
    if not 1 <= k <= len(weights):
        return False
    classes = sorted(Counter(weights).items())
    if len(classes) > 2:
        raise ValueError(f"oracle handles two node weights, got {len(classes)}")
    light, num_light = classes[0]
    heavy, num_heavy = classes[1] if len(classes) == 2 else (light, 0)
    ratio = heavy / light
    if ratio != int(ratio):
        raise ValueError(f"node weight {heavy} is not a multiple of {light}")
    units = _units_within(balance_cap(weights, k, imbalance), light)
    heavy_per_part = units // int(ratio)
    return (num_heavy <= k * heavy_per_part
            and int(ratio) * num_heavy + num_light <= k * units)
