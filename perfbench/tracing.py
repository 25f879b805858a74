"""In-memory spans around the calls into qcpart's modules.

A span's name is ``<layer>.<call>``, the layer being the qcpart module the
call enters. While ``Tracer.wrapping`` is active, each function in
``WRAPPED`` is replaced by one that records a span around the original:
the package attributes the benchmark calls, and the module globals that
``run_hypergraph_pipeline`` and ``build_report`` look up at call time. So
the benchmark runs the real pipeline and report, and their inner calls
appear as child spans. Each traced instance runs inside a root span named
``instance``; its self time is the residual, the instance time no layer
span covers.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter

ROOT = "instance"

# (qcpart module, or "" for the package, function name, span name)
WRAPPED = (
    ("", "parse_circuit", "circuits.parse"),
    ("", "block_partition", "baseline.block"),
    ("", "remap_groups", "baseline.remap"),
    ("", "run_hypergraph_pipeline", "pipeline.run"),
    ("", "build_report", "metrics.report"),
    ("pipeline", "circuit_to_hypergraph", "hypergraph.build"),
    ("pipeline", "solve_partition", "partitioner.solve"),
    ("pipeline", "create_trimmed_partitions", "pipeline.trim"),
    ("pipeline", "merge_partitions", "pipeline.merge"),
    ("pipeline", "build_dependency_graph", "pipeline.dag"),
    ("metrics", "estimate_swaps", "metrics.swaps"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    instance: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.instance = -1

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, perf_counter(), 0.0, parent, self.instance)
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def wrapping(self, q):
        """Trace the calls in WRAPPED on the qcpart package `q`, then restore them."""
        saved = []
        try:
            for module, attr, name in WRAPPED:
                owner = getattr(q, module) if module else q
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._wrap(name, saved[-1][2]))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus its children's."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
