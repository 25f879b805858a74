#!/usr/bin/env python3
"""Run the benchmark on a parent revision and on this checkout, in pairs.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<pr>.json \\
        [--workload NAME[=PAIRS] ...] [--pairs N] [--seconds S] [--seed FIRST] [--size full|tiny]

The parent side is REV's committed files, exported with `git archive` into a
temporary directory; the change side is this checkout as it stands,
uncommitted edits included. Each pair runs `perfbench/run.py --trace 0` once
per side on one seed, every pair on its own seed counted up from --seed, and
the side that runs first alternates from pair to pair (parent first in the
first pair). Give a first seed that was not used while the change was
written. --workload may repeat, with its own pair count; by default every
workload in BENCHMARK.json gets --pairs pairs.

The output file has the layout of the committed BENCH_<pr>.json files:
`command`, `host`, `order`, `summary` (per workload and end-to-end metric,
both sides' values in pair order, their medians, the parent's IQR and the
change's wins) and `runs` (every run's last JSON line, in the order they
ran). The verdict printed per metric follows the benchmark's rule for a
claimed gain: at least ten pairs ran, the change wins at least nine tenths
of them, ties counting for neither side, and the medians differ by more
than the distance between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
RUN = Path("perfbench") / "run.py"
SIDES = ("parent", "change")
MIN_PAIRS = 10  # fewer pairs support no claimed gain
NOISE = {
    "many-parts": "single 30 s runs jump by 100+ ms and the parent's p50 IQR ranged "
                  "10-49 ms across earlier sets, so fewer than ten pairs there show only "
                  "that nothing moved beyond that noise",
}


def end_to_end_metrics(spec: dict) -> dict:
    """Each end-to-end metric's direction and bound from a BENCHMARK.json."""
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def iqr(values: list[float]) -> float:
    """Distance between the quartiles; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """The benchmark's rule for a claimed gain, over pairs given in order."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (statistics.median(change) - statistics.median(parent))
    spread = iqr(parent)
    return {
        "wins": wins,
        "pairs": len(parent),
        "gap": gap,
        "parent_iqr": spread,
        "gain": len(parent) >= MIN_PAIRS and 10 * wins >= 9 * len(parent) and gap > spread,
    }


def summarize(runs: list[dict], metrics: dict) -> dict:
    """Per workload: each metric's values per side in pair order, medians,
    the parent's IQR and the change's wins; pairs are matched by seed."""
    by_pair: dict[str, dict[int, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["workload"], {}).setdefault(run["seed"], {})[run["side"]] = run
    summary = {}
    for workload, pairs in by_pair.items():
        complete = [p for _, p in sorted(pairs.items()) if set(p) == set(SIDES)]
        if not complete:
            continue
        entry: dict = {}
        for name, (better, _) in metrics.items():
            values = {s: [p[s]["result"]["metrics"][name]["value"] for p in complete]
                      for s in SIDES}
            rule = verdict(values["parent"], values["change"], better)
            entry[name] = {
                "parent_median": statistics.median(values["parent"]),
                "change_median": statistics.median(values["change"]),
                "parent_iqr": rule["parent_iqr"],
                "change_wins": rule["wins"],
                "parent": values["parent"],
                "change": values["change"],
            }
        entry["pairs"] = len(complete)
        entry["all_checks_passed"] = all(p[s]["result"]["correct"] for p in complete for s in SIDES)
        entry["p50_change_faster_pairs"] = entry["latency_ms.p50"]["change_wins"]
        summary[workload] = entry
    return summary


def report(summary: dict, metrics: dict) -> list[str]:
    """One line per workload and metric: medians, parent IQR, wins and what
    the pairs show."""
    lines = [f"verdict rule: a gain holds when at least {MIN_PAIRS} pairs ran, the change "
             "wins at least 9/10 of them (ties count for neither) and the median gap "
             "exceeds the parent's IQR; "
             "any metric may worsen by at most its bound (relative to the parent's median)"]
    for workload, entry in summary.items():
        lines.append(f"{workload}: {entry['pairs']} pairs, all checks passed: "
                     f"{entry['all_checks_passed']}")
        if workload in NOISE:
            lines.append(f"  noise: {NOISE[workload]}")
        for name, (better, bound) in metrics.items():
            m = entry[name]
            rule = verdict(m["parent"], m["change"], better)
            base = abs(m["parent_median"])
            worse = -rule["gap"] / base if base else 0.0
            shown = ("gain holds" if rule["gain"] else
                     f"worse by {worse:.1%}, past its bound {bound:g}" if worse > bound else
                     "no gain shown; within its bound")
            lines.append(f"  {name:<18} parent {m['parent_median']:.6g}  change "
                         f"{m['change_median']:.6g}  parent IQR {m['parent_iqr']:.3g}  "
                         f"wins {rule['wins']}/{rule['pairs']}  {shown}")
    return lines


def plan(workloads: list[tuple[str, int]], first_seed: int) -> list[tuple[str, int, tuple[str, str]]]:
    """(workload, seed, side order) per pair; the parent runs first in even pairs."""
    out = []
    for name, pairs in workloads:
        for _ in range(pairs):
            order = SIDES if len(out) % 2 == 0 else SIDES[::-1]
            out.append((name, first_seed + len(out), order))
    return out


def describe_order(pairs: list[tuple[str, int, tuple[str, str]]]) -> str:
    parts = []
    for name in dict.fromkeys(w for w, _, _ in pairs):
        mine = [(seed, order) for w, seed, order in pairs if w == name]
        first = [str(seed) for seed, order in mine if order[0] == "parent"]
        seeds = f"seeds {mine[0][0]}-{mine[-1][0]}" if len(mine) > 1 else f"seed {mine[0][0]}"
        parts.append(f"{name} {seeds}: {len(mine)} pair{'s' * (len(mine) > 1)}, "
                     f"parent first at {', '.join(first) or 'none'}")
    return ("runs are listed in the order they ran; each pair's side that runs first "
            "alternates; " + "; ".join(parts))


def run_once(checkout: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """run.py's last output line, parsed; exits when the benchmark cannot set up."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--size", size]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=600 + 20 * seconds)
    if proc.returncode not in (0, 1):
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                 f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def export(rev: str, dest: Path) -> str:
    """Write rev's committed files into the new directory dest; return its
    full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=REPO,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=REPO, capture_output=True,
                             check=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def parse_workloads(values: list[str] | None, default_pairs: int, known: list[str]):
    out = []
    for value in values or known:
        name, _, pairs = value.partition("=")
        if name not in known:
            raise SystemExit(f"bench_pairs: unknown workload {name!r}; known: {', '.join(known)}")
        count = int(pairs) if pairs else default_pairs
        if count < 1:
            raise SystemExit(f"bench_pairs: {name} needs at least one pair")
        out.append((name, count))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<pr>.json to write")
    parser.add_argument("--workload", action="append", metavar="NAME[=PAIRS]")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = end_to_end_metrics(spec)
    workloads = parse_workloads(args.workload, args.pairs, [w["name"] for w in spec["workloads"]])
    pairs = plan(workloads, args.seed)
    same_bench = subprocess.run(["git", "diff", "--quiet", args.parent, "--", "perfbench",
                                 "BENCHMARK.json"], cwd=REPO).returncode == 0
    if not same_bench:
        print("bench_pairs: warning: the benchmark differs between the two sides", file=sys.stderr)

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        commit = export(args.parent, Path(tmp) / "parent")
        checkouts = {"parent": Path(tmp) / "parent", "change": REPO}
        for workload, seed, order in pairs:
            for side in order:
                result = run_once(checkouts[side], workload, seed, args.seconds, args.size)
                runs.append({"side": side, "workload": workload, "seed": seed, "result": result})
                p50 = result["metrics"]["latency_ms.p50"]["value"]
                print(f"{workload} seed {seed} {side}: p50 {p50:.4g} ms, "
                      f"correct {result['correct']}", flush=True)

    summary = summarize(runs, metrics)
    size = "" if args.size == "full" else f" --size {args.size}"
    bench = {
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0{size}",
        "host": f"{os.cpu_count()}-core {platform.machine()} {platform.system()}; "
                "times at the benchmark's reference host speed",
        "parent": commit,
        "order": describe_order(pairs) + ("" if same_bench else
                                          "; the benchmark code differs between the sides"),
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    print("\n".join(report(summary, metrics)))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
