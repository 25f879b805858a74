"""The benchmark's three workloads and how one instance runs.

The benchmark makes every input from the workload seed; qcpart receives
only circuit text and a configuration. An instance is one closed-loop
request: the next starts when the previous one has returned.

paper-grid   The paper's s/m/l circuits x k in {2,3,4,6,8} x imbalance in
             {0.03,0.05,0.1}, each with a fresh solver seed. One instance is
             ``qcpart compare --block-size 4``: parse, block baseline,
             ``run_hypergraph_pipeline``, ``build_report``. Many tiny solves,
             so fixed per-call costs show, and the only workload where a
             third of the instances hit the balance-failure path.
synth-solve  Random H/CNOT circuits at 16q/200g, k alternating 2 and 4,
             imbalance 0.1. One instance is parse plus
             ``run_hypergraph_pipeline``; the internal solver takes nearly
             all of it. A solve's time varies by about 30% with the circuit
             and the solver seed alike, so a steady median needs many solves
             per run: 32q/400g (1-2 s each) allows too few.
many-parts   Random 64q/4000g circuits through the external-solver path with
             a stand-in solver (k=400 contiguous chunks), merging at
             threshold 2, a block baseline of size 8 and ``build_report``
             with the SWAP-waiver heuristic. The internal solver does no
             work; trim, merge, baseline and metrics do it over hundreds of
             parts. A solver-only change must show no change here.
"""

from __future__ import annotations

from dataclasses import dataclass

import gen

PAPER_CIRCUITS = ("s", "m", "l")
PAPER_K = (2, 3, 4, 6, 8)
PAPER_IMBALANCE = (0.03, 0.05, 0.1)


@dataclass(frozen=True)
class Instance:
    source: str  # names the circuit; instances with equal source share it
    text: str  # the circuit in qcpart's text format
    gates: int
    k: int
    imbalance: float
    seed: int
    block_size: int  # baseline block size for the comparison
    compare: bool  # baseline + report inside the instance (else checked after it)
    merge_threshold: int | None = None
    external: bool = False
    heuristic: bool = False


@dataclass
class Outcome:
    circuit: object
    result: object = None  # qcpart.PipelineResult
    report: object = None  # qcpart.ComparisonReport
    error: str | None = None
    unexpected: bool = False  # the error was not a SolverError


@dataclass(frozen=True)
class Workload:
    name: str
    quota: int  # leading instances every run completes; quality is over these
    build: object  # (q, rng, size) -> list[Instance]


def _paper_grid(q, rng, size: str) -> list[Instance]:
    circuits, ks, eps, rounds = PAPER_CIRCUITS, PAPER_K, PAPER_IMBALANCE, 40
    if size == "tiny":
        circuits, ks, eps, rounds = ("s",), (2, 3), (0.1,), 1
    built = {c: q.benchmark_circuit(c) for c in circuits}
    texts = {c: q.serialize_circuit(circuit) for c, circuit in built.items()}
    # Circuits vary fastest, so any prefix holds s, m and l in equal shares.
    return [
        Instance(c, texts[c], len(built[c]), k, e, gen.solver_seed(rng),
                 block_size=4, compare=True)
        for _ in range(rounds) for k in ks for e in eps for c in circuits
    ]


_SYNTH_CYCLE = ((16, 200, 2), (16, 200, 4))


def _synth_solve(q, rng, size: str) -> list[Instance]:
    cycle, count = _SYNTH_CYCLE, 240
    if size == "tiny":
        cycle, count = ((8, 40, 2), (8, 40, 4)), 2
    out = []
    for i in range(count):
        nq, ng, k = cycle[i % len(cycle)]
        out.append(Instance(f"synth-{i}", gen.synthetic_circuit(rng, nq, ng), ng, k, 0.1,
                            gen.solver_seed(rng), block_size=4, compare=False))
    return out


def _many_parts(q, rng, size: str) -> list[Instance]:
    count, nq, ng, k = (1, 16, 400, 40) if size == "tiny" else (12, 64, 4000, 400)
    # Imbalance 0.2 lets a chunk of about ng/k gates take the one extra
    # 1000-weight node the stand-in's midpoint rule may add.
    return [
        Instance(f"parts-{i}", gen.synthetic_circuit(rng, nq, ng), ng, k, 0.2,
                 gen.solver_seed(rng), block_size=8, compare=True,
                 merge_threshold=2, external=True, heuristic=True)
        for i in range(count)
    ]


WORKLOADS = {
    "paper-grid": Workload("paper-grid", 810, _paper_grid),
    "synth-solve": Workload("synth-solve", 60, _synth_solve),
    "many-parts": Workload("many-parts", 12, _many_parts),
}


def warmup_instances(q, workload: Workload) -> list[Instance]:
    """The workload's tiny instances: they run every code path once."""
    return workload.build(q, q.SplitMix64(0), "tiny")


def run_instance(q, inst: Instance, solver: str) -> Outcome:
    """One instance exactly as a caller of qcpart's public API runs it."""
    circuit = q.parse_circuit(inst.text)
    try:
        baseline = None
        if inst.compare:
            groups = q.block_partition(circuit, q.BaselineConfig(inst.block_size))
            baseline = q.remap_groups(circuit, groups)
        result = q.run_hypergraph_pipeline(
            circuit, k=inst.k, imbalance=inst.imbalance, seed=inst.seed,
            backend=solver if inst.external else q.INTERNAL,
            merge_threshold=inst.merge_threshold,
        )
        report = None
        if inst.compare:
            report = q.build_report(circuit, baseline, list(result.partitions),
                                    heuristic_on=inst.heuristic, seed=inst.seed)
    except q.SolverError as exc:
        return Outcome(circuit, error=str(exc))
    except Exception as exc:  # reported as a failed check, not a crash
        return Outcome(circuit, error=f"{type(exc).__name__}: {exc}", unexpected=True)
    return Outcome(circuit, result, report)
