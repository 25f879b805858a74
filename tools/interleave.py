#!/usr/bin/env python3
"""Time a parent revision against this checkout instance by instance, in one process.

    python3 tools/interleave.py --parent REV [--workload NAME] [--rounds N] [--seed S] [--size full|tiny]

REV's committed files are exported with `git archive` into a temporary
directory, as tools/bench_pairs.py does. Both sides' `qcpart` packages are
then imported into this process under two package names, and each
instance of the workload (default synth-solve) built for seed S (default
11) runs once per side per round through `perfbench/workloads.run_instance`,
the side that runs first alternating from instance to instance and from
round to round. The instances, the benchmark code and the stand-in solver
come from this checkout. Full size takes the instances tools/digests.py
takes.

It prints the median of the per-instance time ratios change/parent with
their quartiles, over every instance and round, and each side's median
instance time; then the same for the instances the parent solved and for
those it raised SolverError on, each line left out when it has no runs. A
change that stops failing solves sooner shows there as a ratio near 1 on
the solved ones and a lower one on the failing ones. Timing both sides on
the same instances in the same process cancels most of the drift that
separate benchmark runs see, so a change of a few percent shows in a few
rounds; a claimed gain still needs tools/bench_pairs.py.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import REPO, export  # noqa: E402
from digests import WORKLOADS, workload_instances  # noqa: E402

SIDES = ("parent", "change")
OUTCOMES = ("solved", "SolverError")  # the parent's outcome of a run


def load_package(root: Path, name: str):
    """Import root's src/qcpart as the package `name`."""
    init = root / "src" / "qcpart" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def order(instance: int, round_: int) -> tuple[str, str]:
    """The side that runs first alternates per instance and per round."""
    return SIDES if (instance + round_) % 2 == 0 else SIDES[::-1]


def summarize(times: dict[str, list[float]]) -> dict:
    """The per-instance ratios change/parent: their median and quartiles,
    with each side's median time; the lists hold matching runs in order."""
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    if len(ratios) > 1:
        q1, median, q3 = statistics.quantiles(ratios, n=4)
    else:
        q1 = median = q3 = ratios[0]
    return {
        "runs": len(ratios),
        "ratio_median": median,
        "ratio_q1": q1,
        "ratio_q3": q3,
        "parent_median_ms": 1e3 * statistics.median(times["parent"]),
        "change_median_ms": 1e3 * statistics.median(times["change"]),
    }


def by_outcome(times: dict[str, list[float]], raised: list[bool]) -> dict:
    """`times` split by the parent's outcome of each run, `raised[i]` True
    where run i raised SolverError there: OUTCOMES to each side's times, a
    class with no runs left out."""
    return {outcome: {side: [t for t, r in zip(times[side], raised) if r == failed]
                      for side in SIDES}
            for outcome, failed in zip(OUTCOMES, (False, True)) if failed in raised}


def report(workload: str, summary: dict) -> str:
    return (f"{workload}: {summary['runs']} runs per side, time ratio change/parent "
            f"median {summary['ratio_median']:.3f} (quartiles {summary['ratio_q1']:.3f}"
            f"-{summary['ratio_q3']:.3f}); median instance parent "
            f"{summary['parent_median_ms']:.3f} ms, change {summary['change_median_ms']:.3f} ms")


def measure(packages: dict, workload: str, rounds: int, seed: int,
            size: str) -> tuple[dict, list[bool]]:
    """Each side's time per instance run, in matching order, and per run
    whether the parent's run raised SolverError."""
    sys.path.insert(0, str(REPO / "perfbench"))
    bench = importlib.import_module("workloads")
    solver = str(REPO / "perfbench" / "standin_solver.py")
    spec = bench.WORKLOADS[workload]
    instances = workload_instances(bench, packages["change"], workload, seed, size)
    for q in packages.values():  # every code path once before timing
        for inst in bench.warmup_instances(q, spec):
            bench.run_instance(q, inst, solver)
    times: dict[str, list[float]] = {side: [] for side in SIDES}
    raised = []
    for round_ in range(rounds):
        for i, inst in enumerate(instances):
            for side in order(i, round_):
                start = perf_counter()
                outcome = bench.run_instance(packages[side], inst, solver)
                times[side].append(perf_counter() - start)
                if side == "parent":
                    raised.append(outcome.error is not None and not outcome.unexpected)
    return times, raised


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--workload", choices=WORKLOADS, default="synth-solve")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory(prefix="interleave-") as tmp:
        parent_root = Path(tmp) / "parent"
        commit = export(args.parent, parent_root)
        packages = {"parent": load_package(parent_root, "qcpart_parent"),
                    "change": load_package(REPO, "qcpart_change")}
        times, raised = measure(packages, args.workload, args.rounds, args.seed, args.size)
    print(f"parent {commit}, seed {args.seed}, size {args.size}, {args.rounds} rounds")
    print(report(args.workload, summarize(times)))
    for outcome, part in by_outcome(times, raised).items():
        print(report(f"{args.workload} {outcome}", summarize(part)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
