#!/usr/bin/env python3
"""Digest the benchmark's outputs, for this checkout or against a parent.

    python3 tools/digests.py [--parent REV] [--workload NAME ...] [--seed S ...] [--size full|tiny]

For each seed S (default 7; `--seed` may be given more than once) and each
workload (all of them by default) it builds the benchmark's own instances
for S, runs each once through `perfbench/workloads.run_instance`, as a
benchmark run does, and prints one line: the workload and seed, the
instance count, how many raised SolverError, and the SHA-256 over
the instances' `perfbench/checks.digest` values, which hash every label,
part, DAG edge and report figure. Full size takes the first 810 paper-grid
instances (the ones every benchmark run completes) and every synth-solve
and many-parts instance; `--size tiny` takes every tiny instance.

With --parent, REV's committed files are exported into a temporary
directory with `git archive`, as tools/bench_pairs.py does, and both sides
run, each in a subprocess of its own: REV, then this checkout as it stands,
uncommitted edits included. The exit status is 1 when any workload's line
differs between the two. A change that claims byte-identical outputs shows
it with `--parent <its parent>`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import REPO, export  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]
FULL_COUNT = {"paper-grid": 810}  # the other workloads run every instance


def combine(digests: list[str]) -> str:
    """SHA-256 over the per-instance digests, one a line, in instance order."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def workload_instances(bench, q, name: str, seed: int, size: str) -> list:
    """The workload's instances for seed; full size keeps the first
    FULL_COUNT[name] of them, where a count is set."""
    built = bench.WORKLOADS[name].build(q, q.SplitMix64(seed), size)
    return built[:FULL_COUNT.get(name)] if size == "full" else built


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


def measure(root: Path, workloads: list[str], seeds: list[int], size: str) -> list[str]:
    """One line per seed and workload, from root's src/ and perfbench/, in this process."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    q = importlib.import_module("qcpart")
    if Path(q.__file__).resolve().parent != (root / "src" / "qcpart").resolve():
        sys.exit(f"digests: qcpart was imported from {q.__file__}, not from {root / 'src'}")
    checks = importlib.import_module("checks")
    bench = importlib.import_module("workloads")
    solver = str(root / "perfbench" / "standin_solver.py")
    lines = []
    for seed in seeds:
        for name in workloads:
            instances = workload_instances(bench, q, name, seed, size)
            digests, errors = [], 0
            for inst in instances:
                outcome = bench.run_instance(q, inst, solver)
                errors += outcome.error is not None and not outcome.unexpected
                digests.append(checks.digest(outcome))
            lines.append(line(name, seed, len(instances), errors, combine(digests)))
    return lines


def run_side(root: Path, workloads: list[str], seeds: list[int], size: str) -> list[str]:
    """`measure` for root, in a subprocess of its own; its output lines."""
    cmd = [sys.executable, __file__, "--root", str(root), "--size", size]
    for seed in seeds:
        cmd += ["--seed", str(seed)]
    for name in workloads:
        cmd += ["--workload", name]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"digests: the run in {root} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="the revision to compare against")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, action="append", help="default: 7")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--root", type=Path, default=REPO,
                        help="the checkout whose src/ and perfbench/ run (default: this one)")
    args = parser.parse_args(argv)
    workloads = args.workload or WORKLOADS
    seeds = args.seed or [7]

    if args.parent is None:
        print("\n".join(measure(args.root, workloads, seeds, args.size)))
        return 0
    with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        parent_root = Path(tmp) / "parent"
        commit = export(args.parent, parent_root)
        parent = run_side(parent_root, workloads, seeds, args.size)
        change = run_side(args.root, workloads, seeds, args.size)
    lines, same = compare(parent, change)
    print(f"parent {commit}, seed {', '.join(map(str, seeds))}, size {args.size}")
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
