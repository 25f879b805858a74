"""Host-speed calibration: a fixed piece of Python timed between instances.

On a shared host the same instance can take up to twice as long from one
minute to the next, because of what other tenants run on the same cores.
The benchmark times this kernel next to the program and reports each timing
scaled by ``REFERENCE_S / kernel time``: the time it would take on a host
where the kernel takes ``REFERENCE_S``. The kernel does the kind of work
qcpart's partitioner does (gain scans over a hypergraph held in lists) on a
fixed input, and imports nothing from qcpart, so no change to the program
changes it.
"""

from __future__ import annotations

import gc
from time import perf_counter

# Within the range of the kernel's median time per run (3.5-5.4 ms) on the
# shared 2-core x86-64 host, CPython 3.11, where the bounds were set; it
# only sets the scale of the reported times.
REFERENCE_S = 0.005
_REPEATS = 3  # a sample is the fastest of this many kernel runs
_NODES, _EDGES = 300, 700


def _lcg(x: int) -> int:
    return (x * 1103515245 + 12345) & 0x7FFFFFFF


def _hypergraph():
    x, edges = 99, []
    for _ in range(_EDGES):
        members = []
        for _ in range(2 + x % 3):
            x = _lcg(x)
            members.append(x % _NODES)
        x = _lcg(x)
        edges.append((1.0 + x % 5, members))
    incident: dict[int, list[int]] = {}
    for ei, (_, members) in enumerate(edges):
        for v in members:
            incident.setdefault(v, []).append(ei)
    side = [(_lcg(v) >> 5) & 1 for v in range(_NODES)]
    return edges, incident, side


_GRAPH = _hypergraph()


def _gain(edges, incident, side, v: int) -> float:
    gain = 0.0
    for ei in incident.get(v, ()):
        w, members = edges[ei]
        same = other = 0
        for u in members:
            if u == v:
                continue
            if side[u] == side[v]:
                same += 1
            else:
                other += 1
        if other == 0 and same > 0:
            gain -= w
        elif same == 0 and other > 0:
            gain += w
    return gain


def _kernel() -> float:
    edges, incident, start = _GRAPH
    side = list(start)
    total = 0.0
    for _ in range(3):
        best = max(range(_NODES), key=lambda v: _gain(edges, incident, side, v))
        side[best] ^= 1
        total += sum(_gain(edges, incident, side, v) for v in range(_NODES))
    return total


def sample() -> float:
    """The kernel's time in seconds, the fastest of a few runs, GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(_REPEATS):
            t0 = perf_counter()
            _kernel()
            times.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return min(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between two samples, at the reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)
