#!/usr/bin/env python3
"""Check a parent revision against this checkout: outputs byte for byte, and time per instance.

    python3 tools/interleave.py [--parent REV] [--workload NAME ...] [--seed S ...] [--rounds N] [--size full|tiny]

For each seed S (default 7) and each workload (all of them by default), both
options repeatable, it builds the benchmark's own instances for S and runs
each through `perfbench/workloads.run_instance`, as a benchmark run does.
Full size takes the first 810 paper-grid instances (the ones every benchmark
run completes) and every synth-solve and many-parts instance; `--size tiny`
takes every tiny instance. The instances, the benchmark code and the
stand-in solver come from this checkout.

A side's first round gives one line per seed and workload: the workload and
seed, the instance count, how many raised SolverError, and the SHA-256 over
the instances' `perfbench/checks.digest` values, which hash every label,
part, DAG edge and report figure. Per workload and side follows a quality
line over every seed: the instance and SolverError counts and, over the
instances every side solved, the geomean of km1/km1(random, that is
`random_balanced_assignment`) and the mean ln F gain over the block
baseline, each instance's figures from `perfbench/checks.quality` as a
benchmark run computes them, so a change that changes labels shows whether
it keeps quality. Without --parent it prints this checkout's lines and
stops.

With --parent, REV's committed files are exported with `git archive` into a
temporary directory, as tools/bench_pairs.py does, and both sides' `qcpart`
packages are imported into this process under two package names: REV's,
and this checkout's as it stands, uncommitted edits included. Each instance
runs once per side per round (default 1 round), the side that runs first
alternating from instance to instance and from round to round. It prints
the two sides' lines paired, `identical` or `DIFFERS`, then the quality
lines, and exits 1 when any pair differs: a change that claims
byte-identical outputs shows it with `--parent <its parent>`.

Then, per workload, it prints the median of the per-instance time ratios
change/parent with their quartiles, over every instance, seed and round;
the ratio of the two sides' summed times, which the benchmark's
`gates_per_s` (gates over summed instance time) follows and a few long
instances can pull away from the median; and each side's median instance
time. Then it prints the same for the instances the parent solved and for
those it raised SolverError on, each line left out when it has no runs. A
change that stops failing solves sooner shows there as a ratio near 1 on
the solved ones and a lower one on the failing ones.
Timing both sides on the same instances in the same process cancels most of
the drift that separate benchmark runs see, so a change of a few percent
shows in a few rounds; a claimed gain still needs tools/bench_pairs.py.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import math
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import REPO, export  # noqa: E402

sys.path.insert(0, str(REPO / "perfbench"))
import checks  # noqa: E402
import workloads as bench  # noqa: E402

SOLVER = str(REPO / "perfbench" / "standin_solver.py")
FULL_COUNT = {"paper-grid": 810}  # the other workloads run every instance
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


def workload_instances(q, name: str, seed: int, size: str) -> list:
    """The workload's instances for seed; full size keeps the first
    FULL_COUNT[name] of them, where a count is set."""
    built = bench.WORKLOADS[name].build(q, q.SplitMix64(seed), size)
    return built[:FULL_COUNT.get(name)] if size == "full" else built


def combine(digests: list[str]) -> str:
    """SHA-256 over the per-instance digests, one a line, in instance order."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def line(workload: str, seed: int, instances: int, errors: int, sha: str) -> str:
    return f"{workload} seed {seed}: {instances} instances, {errors} SolverError, sha256 {sha}"


def compare(parent: list[str], change: list[str]) -> tuple[list[str], bool]:
    """Report lines pairing each side's line per workload; True when all match."""
    out, same = [], len(parent) == len(change)
    for p, c in zip(parent, change):
        if p == c:
            out.append(f"identical  {p}")
        else:
            same = False
            out += [f"DIFFERS    parent {p}", f"           change {c}"]
    if len(parent) != len(change):
        out.append(f"DIFFERS    {len(parent)} parent lines, {len(change)} change lines")
    return out, same


def order(instance: int, round_: int) -> tuple[str, str]:
    """The side that runs first alternates per instance and per round."""
    return SIDES if (instance + round_) % 2 == 0 else SIDES[::-1]


def summarize(times: dict[str, list[float]]) -> dict:
    """The per-instance ratios change/parent: their median and quartiles,
    with the ratio of the summed times and each side's median time; the
    lists hold matching runs in order."""
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
        "ratio_total": sum(times["change"]) / sum(times["parent"]),
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
            f"-{summary['ratio_q3']:.3f}), total {summary['ratio_total']:.3f}; "
            f"median instance parent {summary['parent_median_ms']:.3f} ms, "
            f"change {summary['change_median_ms']:.3f} ms")


def solved_quality(q, inst, outcome):
    """`checks.quality` of an outcome that solved, judged by the report a
    benchmark run judges it by; None for one that raised."""
    if outcome.error is not None:
        return None
    judged = outcome.report
    if judged is None:  # a workload that compares after the instance
        circuit = outcome.circuit
        groups = q.block_partition(circuit, q.BaselineConfig(inst.block_size))
        judged = q.build_report(circuit, q.remap_groups(circuit, groups),
                                list(outcome.result.partitions))
    # labels within the cap show the instance feasible
    return checks.quality(q, inst, outcome, True, judged)


def quality_report(workload: str, qualities: dict[str, list]) -> list[str]:
    """One line per side: its instance and SolverError counts (a None is a
    run that raised) and, over the instances every side solved, the
    geomean km1/km1(random) and the mean ln F gain, as the benchmark's
    km1_ratio and fidelity_log_ratio take them."""
    runs = zip(*qualities.values())
    both = [i for i, row in enumerate(runs) if None not in row]
    out = []
    for side, side_runs in qualities.items():
        text = (f"{workload} {side}: {len(side_runs)} instances, "
                f"{sum(x is None for x in side_runs)} SolverError")
        if both:
            ratio = math.exp(statistics.fmean(
                math.log(side_runs[i].km1 / side_runs[i].km1_random) for i in both))
            gain = statistics.fmean(side_runs[i].log_fidelity_gain for i in both)
            text += (f"; over the {len(both)} every side solved, geomean km1/km1(random) "
                     f"{ratio:.4f}, mean ln F gain {gain:.3f}")
        out.append(text)
    return out


def measure(packages: dict, workload: str, seed: int, rounds: int, size: str):
    """Run the workload's instances for seed on each side in `packages`,
    after an untimed pass over its tiny instances runs every code path.

    Returns each side's line from its first round; each side's time per
    instance run, in matching order; per run whether the parent's run
    raised SolverError, empty without a parent; and each side's
    `solved_quality` per instance from its first round."""
    for q in packages.values():
        for inst in bench.warmup_instances(q, bench.WORKLOADS[workload]):
            bench.run_instance(q, inst, SOLVER)
    instances = workload_instances(packages["change"], workload, seed, size)
    digests = {side: [] for side in packages}
    errors = dict.fromkeys(packages, 0)
    times = {side: [] for side in packages}
    qualities = {side: [] for side in packages}
    raised = []
    for round_ in range(rounds):
        for i, inst in enumerate(instances):
            for side in order(i, round_):
                if side not in packages:
                    continue
                start = perf_counter()
                outcome = bench.run_instance(packages[side], inst, SOLVER)
                times[side].append(perf_counter() - start)
                failed = outcome.error is not None and not outcome.unexpected
                if side == "parent":
                    raised.append(failed)
                if round_ == 0:
                    errors[side] += failed
                    digests[side].append(checks.digest(outcome))
                    qualities[side].append(solved_quality(packages[side], inst, outcome))
    lines = {side: line(workload, seed, len(instances), errors[side], combine(digests[side]))
             for side in packages}
    return lines, times, raised, qualities


def run(packages: dict, workloads: list[str], seeds: list[int], rounds: int, size: str):
    """`measure` for every seed and workload: each side's lines, seed by
    seed, and each workload's times, parent outcomes and qualities over
    every seed."""
    lines = {side: [] for side in packages}
    timing = {name: ({side: [] for side in packages}, [], {side: [] for side in packages})
              for name in workloads}
    for seed in seeds:
        for name in workloads:
            got, times, raised, qualities = measure(packages, name, seed, rounds, size)
            for side in packages:
                lines[side].append(got[side])
                timing[name][0][side] += times[side]
                timing[name][2][side] += qualities[side]
            timing[name][1].extend(raised)
    return lines, timing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="the revision to compare against")
    parser.add_argument("--workload", action="append", choices=list(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, action="append", help="default: 7")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    workloads = args.workload or list(bench.WORKLOADS)
    seeds = args.seed or [7]

    if args.parent is None:
        lines, timing = run({"change": load_package(REPO, "qcpart_change")}, workloads, seeds,
                            1, args.size)
        print("\n".join(lines["change"]))
        for name, (_, _, qualities) in timing.items():
            print("\n".join(quality_report(name, qualities)))
        return 0
    with tempfile.TemporaryDirectory(prefix="interleave-") as tmp:
        parent_root = Path(tmp) / "parent"
        commit = export(args.parent, parent_root)
        packages = {"parent": load_package(parent_root, "qcpart_parent"),
                    "change": load_package(REPO, "qcpart_change")}
        lines, timing = run(packages, workloads, seeds, args.rounds, args.size)
    compared, same = compare(lines["parent"], lines["change"])
    print(f"parent {commit}, seed {', '.join(map(str, seeds))}, size {args.size}, "
          f"{args.rounds} rounds")
    print("\n".join(compared))
    for name, (_, _, qualities) in timing.items():
        print("\n".join(quality_report(name, qualities)))
    for name, (times, raised, _) in timing.items():
        print(report(name, summarize(times)))
        for outcome, part in by_outcome(times, raised).items():
            print(report(f"{name} {outcome}", summarize(part)))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
