"""qcpart's benchmark: one workload, closed loop, one caller, one thread.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; qcpart is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics: set-up time, instance
latency (median and tail), gates per second, success rate, km1 against a
random balanced assignment, whole-circuit fidelity against the block
baseline (as a log ratio), and peak memory. With ``--trace 1`` each
instance runs twice, untraced and then with a span around every call into a
qcpart module, and it prints per-layer self times, shares and counts
instead. The end-to-end times are scaled to a reference host speed by a
calibration kernel timed between instances (see ``calibrate.py``); the raw
wall times are printed beside them. Either way the last line of standard
output is one JSON object, and every output is checked: the exit status is
1 when a check fails and 2 when the benchmark cannot set up.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import calibrate
import checks
import oracle
from tracing import ROOT, Tracer
from workloads import WORKLOADS, run_instance, warmup_instances

ROOT_DIR = Path(__file__).resolve().parent.parent
SRC = ROOT_DIR / "src"
OUT_DIR = ROOT_DIR / ".bench_out"
SOLVER = Path(__file__).resolve().parent / "standin_solver.py"
# Set-ups per run, back to back before the first instance; setup_s is
# their median, which one slow set-up does not move.
SETUPS = 5
# Seconds between calibration samples in the measured loop.
CALIBRATE_EVERY = 0.5

END_TO_END = {
    "setup_s": "s",
    "latency_ms.p50": "ms",
    "latency_ms.tail": "ms",
    "gates_per_s": "gates/s",
    "success_rate": "ratio",
    "km1_ratio": "ratio",
    "fidelity_log_ratio": "ln",
    "peak_rss_mb": "MiB",
}

LAYERS = ("circuits", "hypergraph", "partitioner", "pipeline", "baseline", "metrics")
# span name -> per-layer metric holding its mean time per traced instance
CALL_TIMES = {
    "circuits.parse": "circuits.parse_ms",
    "hypergraph.build": "hypergraph.build_ms",
    "partitioner.solve": "partitioner.solve_ms",
    "pipeline.trim": "pipeline.trim_ms",
    "pipeline.merge": "pipeline.merge_ms",
    "pipeline.dag": "pipeline.dag_ms",
    "baseline.block": "baseline.block_ms",
    "baseline.remap": "baseline.remap_ms",
    "metrics.report": "metrics.report_ms",
    "metrics.swaps": "metrics.swaps_ms",
}
PER_LAYER = {
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    **{f"{layer}.busy_share": "ratio" for layer in LAYERS},
    "trace.residual_share": "ratio",
    "trace.instance_ms": "ms",
    "trace.overhead_ms": "ms",
    **{name: "ms" for name in CALL_TIMES.values()},
    "partitioner.calls": "count",
    "partitioner.failures": "count",
    "partitioner.infeasible": "count",
    "partitioner.km1": "weight",
    "partitioner.max_load_ratio": "ratio",
    "hypergraph.pins": "count",
    "pipeline.parts": "count",
    "pipeline.parts_merged": "count",
    "pipeline.dag_edges": "count",
    "baseline.blocks": "count",
    "metrics.swap_total": "count",
    "metrics.cut_qubits": "count",
}


class SetupError(RuntimeError):
    pass


def import_qcpart():
    """A fresh import of qcpart from this checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "qcpart" or m.startswith("qcpart.")]:
        del sys.modules[name]
    try:
        q = importlib.import_module("qcpart")
    except ImportError as exc:
        raise SetupError(f"cannot import qcpart from {SRC}: {exc}")
    if Path(q.__file__).resolve().parent != (SRC / "qcpart").resolve():
        raise SetupError(f"qcpart was imported from {q.__file__}, not from {SRC}")
    return q


def set_up(workload, seed: int, size: str):
    """Import, generate the inputs and warm up; returns (q, instances, seconds)."""
    start = perf_counter()
    q = import_qcpart()
    instances = workload.build(q, q.SplitMix64(seed), size)
    for inst in warmup_instances(q, workload):
        outcome = run_instance(q, inst, str(SOLVER))
        if outcome.unexpected:
            raise SetupError(f"warm-up failed: {outcome.error}")
    return q, instances, perf_counter() - start


def set_up_repeatedly(workload, seed: int, size: str):
    """SETUPS set-ups; returns the last one's (q, instances), every time and
    every time scaled to the reference speed."""
    times, scaled = [], []
    before = calibrate.sample()
    for _ in range(SETUPS):
        q, instances, seconds = set_up(workload, seed, size)
        after = calibrate.sample()
        times.append(seconds)
        scaled.append(calibrate.scaled(seconds, before, after))
        before = after
    return q, instances, times, scaled


class RunLog:
    """Checks every instance run and keeps what the metrics need."""

    def __init__(self, q, instances, quota: int):
        self.q = q
        self.instances = instances
        self.quota = quota
        self.first_digest: dict[int, str] = {}
        self.feasible: dict[tuple, bool] = {}
        self.quality: dict[int, checks.Quality] = {}
        self.failed_quota: set[int] = set()
        self.latency: list[float] = []  # untraced instance seconds
        self.segment: list[int] = []  # s: kernel[s] and kernel[s + 1] bracket the run
        self.kernel: list[float] = []  # calibration samples, seconds
        self.gates_done = 0
        self.runs = 0
        self.failed = 0
        self.repeats = 0

    def _is_feasible(self, inst, outcome) -> bool:
        key = (inst.source, inst.k, inst.imbalance)
        if key not in self.feasible:
            hg = self.q.circuit_to_hypergraph(outcome.circuit)
            self.feasible[key] = oracle.feasible(hg.node_weights, inst.k, inst.imbalance)
        return self.feasible[key]

    def _report(self, inst, outcome):
        if outcome.report is not None or outcome.error is not None:
            return outcome.report
        q, circuit = self.q, outcome.circuit
        baseline = q.remap_groups(circuit, q.block_partition(circuit, q.BaselineConfig(inst.block_size)))
        return q.build_report(circuit, baseline, list(outcome.result.partitions))

    def record(self, i: int, outcome, seconds: float | None) -> None:
        index = i % len(self.instances)
        inst = self.instances[index]
        digest = checks.digest(outcome)
        if index not in self.first_digest:
            self.first_digest[index] = digest
            feasible = self._is_feasible(inst, outcome)
            report = self._report(inst, outcome)
            problems = checks.check(self.q, inst, outcome, feasible, report)
            if i < self.quota:
                self.quality[i] = checks.quality(self.q, inst, outcome, feasible, report)
        else:
            self.repeats += 1
            problems = []
            if digest != self.first_digest[index]:
                problems.append(f"output digest {digest} differs from the first run's "
                                f"{self.first_digest[index]}")
        self.runs += 1
        if problems:
            self.failed += 1
            if i < self.quota:
                self.failed_quota.add(i)
            for problem in problems:
                print(f"CHECK FAILED {inst.source} k={inst.k} eps={inst.imbalance} "
                      f"seed={inst.seed}: {problem}", file=sys.stderr)
        if seconds is not None:
            self.latency.append(seconds)
            self.segment.append(len(self.kernel) - 1)
            if outcome.error is None:
                self.gates_done += inst.gates

    def scaled_latency(self) -> list[float]:
        """Untraced instance seconds at the reference host speed."""
        return [calibrate.scaled(t, self.kernel[s], self.kernel[s + 1])
                for t, s in zip(self.latency, self.segment)]


def measure(q, instances, quota: int, seconds: float, tracer: Tracer | None) -> RunLog:
    """Closed loop until `seconds` have passed and the quota is done.

    With a tracer, each instance runs again right after its timed run, with
    the calls into qcpart wrapped in spans. The calibration kernel runs
    before the first instance, after the last, and in between whenever
    CALIBRATE_EVERY seconds have passed since it last ran.
    """
    log = RunLog(q, instances, quota)
    solver = str(SOLVER)
    log.kernel.append(calibrate.sample())
    start = calibrated = perf_counter()
    i = 0
    while i < quota or perf_counter() - start < seconds:
        if perf_counter() - calibrated >= CALIBRATE_EVERY:
            log.kernel.append(calibrate.sample())
            calibrated = perf_counter()
        inst = instances[i % len(instances)]
        t0 = perf_counter()
        outcome = run_instance(q, inst, solver)
        log.record(i, outcome, perf_counter() - t0)
        if tracer is not None:
            tracer.instance = i
            with tracer.wrapping(q), tracer.span(ROOT):
                outcome = run_instance(q, inst, solver)
            log.record(i, outcome, None)
        i += 1
    log.kernel.append(calibrate.sample())
    if log.repeats == 0:
        log.record(0, run_instance(q, instances[0], solver), None)
    return log


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _tail(latencies: list[float], quota: int):
    """Tail latency at a percentile fixed per workload, and its label.

    The percentile is the highest with ten of the quota's samples beyond
    it, so every run has at least ten beyond it, and a faster program,
    which completes more instances, is compared at the same percentile.
    Under 20 quota instances it is the maximum over the quota's instances.
    """
    if quota < 20:
        return max(latencies[:quota]), f"max of the first {quota}"
    ordered = sorted(latencies)
    beyond = 10 * len(ordered) // quota
    return ordered[-beyond - 1], f"p{100 * (1 - beyond / len(ordered)):.1f}"


def _quota_outcomes(log: RunLog):
    """(qualities, solved ones, failures, oracle-infeasible rejections) over the quota."""
    qualities = [log.quality[i] for i in range(log.quota)]
    solved = [x for x in qualities if x.solved]
    failed = sum(x.rejected for x in qualities) + sum(
        1 for i in log.failed_quota if not qualities[i].rejected)
    infeasible = sum(1 for x in qualities if not x.solved and not x.rejected)
    return qualities, solved, failed, infeasible


def end_to_end(log: RunLog, setup_times: list[float],
               setup_scaled: list[float]) -> tuple[dict, list[str]]:
    qualities, solved, failed, infeasible = _quota_outcomes(log)
    attempted = len(qualities)
    lat_ms = [s * 1000 for s in log.scaled_latency()]
    wall_ms = [s * 1000 for s in log.latency]
    tail, tail_label = _tail(lat_ms, log.quota)
    wall_tail, _ = _tail(wall_ms, log.quota)
    values = {
        "setup_s": statistics.median(setup_scaled),
        "latency_ms.p50": statistics.median(lat_ms),
        "latency_ms.tail": tail,
        "gates_per_s": 1000 * log.gates_done / sum(lat_ms),
        "success_rate": 1.0 - failed / attempted,
        "km1_ratio": math.exp(_mean(math.log(x.km1 / x.km1_random) for x in solved)),
        "fidelity_log_ratio": _mean(x.log_fidelity_gain for x in solved),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups; wall "
                   + " ".join(f"{t:.4f}" for t in setup_times),
        "latency_ms.p50": f"n={len(lat_ms)}; wall {statistics.median(wall_ms):.4g}",
        "latency_ms.tail": f"{tail_label}, n={len(lat_ms)}; wall {wall_tail:.4g}",
        "gates_per_s": f"gates of solved instances / instance time, n={len(lat_ms)}; "
                       f"wall {1000 * log.gates_done / sum(wall_ms):.4g}",
        "success_rate": f"failure_rate {failed}/{attempted}; "
                        f"{infeasible} oracle-infeasible rejections are not failures",
        "km1_ratio": f"geomean km1 / km1(random_balanced_assignment), n={len(solved)}",
        "fidelity_log_ratio": f"mean ln(F_hypergraph / F_baseline), whole circuit, "
                              f"n={len(solved)}",
        "peak_rss_mb": "this process",
    }
    kernel_ms = sorted(1000 * k for k in log.kernel)
    lines = [f"times at the reference host speed (calibration kernel {1000 * calibrate.REFERENCE_S:g} ms; "
             f"here median {statistics.median(kernel_ms):.4g} ms, range {kernel_ms[0]:.4g}-"
             f"{kernel_ms[-1]:.4g} ms over {len(kernel_ms)} samples)"]
    return values, lines + [
        f"{name:<18} {values[name]:>14.6g} {END_TO_END[name]:<8} ({notes[name]})"
        for name in END_TO_END]


def per_layer(log: RunLog, tracer: Tracer) -> tuple[dict, list[str]]:
    roots = [s for s in tracer.spans if s.name == ROOT]
    n = len(roots)
    instance_total = sum(s.duration for s in roots)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    residual = 0.0
    call_total: dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span.name == ROOT:
            residual += own
        else:
            call_total[span.name] += span.duration
            layer_self[span.layer] += own
    qualities, solved, _, infeasible = _quota_outcomes(log)
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = 1000 * layer_self[layer] / n
        values[f"{layer}.busy_share"] = layer_self[layer] / instance_total
    values["trace.residual_share"] = residual / instance_total
    values["trace.instance_ms"] = 1000 * instance_total / n
    values["trace.overhead_ms"] = 1000 * (instance_total / n - _mean(log.latency))
    for name, metric in CALL_TIMES.items():
        values[metric] = 1000 * call_total[name] / n
    values.update({
        "partitioner.calls": sum(1 for s in tracer.spans if s.name == "partitioner.solve"),
        "partitioner.failures": sum(x.rejected for x in qualities),
        "partitioner.infeasible": infeasible,
        "partitioner.km1": _mean(x.km1 for x in solved),
        "partitioner.max_load_ratio": _mean(x.max_load_ratio for x in solved),
        "hypergraph.pins": _mean(x.pins for x in solved),
        "pipeline.parts": _mean(x.parts_trimmed for x in solved),
        "pipeline.parts_merged": _mean(x.parts for x in solved),
        "pipeline.dag_edges": _mean(x.dag_edges for x in solved),
        "baseline.blocks": _mean(x.blocks for x in solved),
        "metrics.swap_total": _mean(x.swap_total for x in solved),
        "metrics.cut_qubits": _mean(x.cut_qubits for x in solved),
    })
    lines = [f"traced instances {n}; layer self time per instance and share of instance time:"]
    for layer in LAYERS:
        lines.append(f"  {layer:<12} {values[f'{layer}.self_ms']:>12.4f} ms "
                     f"{100 * values[f'{layer}.busy_share']:>6.2f} %")
    lines.append(f"  {'residual':<12} {1000 * residual / n:>12.4f} ms "
                 f"{100 * values['trace.residual_share']:>6.2f} %")
    lines.append(f"  {'instance':<12} {values['trace.instance_ms']:>12.4f} ms; tracing overhead "
                 f"{values['trace.overhead_ms']:.4f} ms per instance")
    lines += [f"{name:<28} {values[name]:>14.6g} {PER_LAYER[name]}"
              for name in PER_LAYER if not name.endswith(("self_ms", "busy_share"))]
    return values, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long (every run also completes the quality quota)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload on a few small instances")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (SRC / "qcpart" / "__init__.py").is_file():
        print(f"perfbench: no qcpart sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if not os.access(SOLVER, os.X_OK):
        SOLVER.chmod(SOLVER.stat().st_mode | 0o111)
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)  # the external adapter's files
    try:
        q, instances, setup_times, setup_scaled = set_up_repeatedly(
            workload, args.seed, args.size)
        quota = min(workload.quota, len(instances))
        tracer = Tracer() if args.trace else None
        log = measure(q, instances, quota, args.seconds, tracer)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}  "
          f"runs {log.runs}  quota {quota}  repeats {log.repeats}  failed checks {log.failed}")
    if tracer is None:
        values, lines = end_to_end(log, setup_times, setup_scaled)
        units = END_TO_END
    else:
        values, lines = per_layer(log, tracer)
        units = PER_LAYER
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        lines.append(f"spans written to {spans_path.relative_to(ROOT_DIR)}")
    print("\n".join(lines))
    correct = log.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": log.runs,
        "failed": log.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
