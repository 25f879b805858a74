"""Tests of the benchmark itself: its output contract, inputs and oracle."""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import qcpart as q  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import standin_solver  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_declared_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    table = "\n".join(lines[:-1])
    for m in declared:
        if not m["name"].endswith(("self_ms", "busy_share")):  # shown as a table
            assert f"{m['name']} " in table and f" {m['unit']}" in table


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "paper-grid", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_generator_is_deterministic_per_seed():
    def draw(seed):
        rng = q.SplitMix64(seed)
        return gen.synthetic_circuit(rng, 16, 200), gen.solver_seed(rng)

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)
    circuit = q.parse_circuit(draw(7)[0])
    assert circuit.num_qubits == 16 and len(circuit) == 200
    assert {g.kind for g in circuit.gates} == {q.H, q.CNOT}
    for name, workload in WORKLOADS.items():
        assert workload.build(q, q.SplitMix64(5), "full") == workload.build(
            q, q.SplitMix64(5), "full"), name


def _brute_force_feasible(weights, k, imbalance):
    cap = oracle.balance_cap(weights, k, imbalance)
    for labels in itertools.product(range(k), repeat=len(weights)):
        loads = [0.0] * k
        for w, label in zip(weights, labels):
            loads[label] += w
        if len(set(labels)) == k and max(loads) <= cap:
            return True
    return False


def test_oracle_agrees_with_brute_force():
    rng = q.SplitMix64(11)
    cases = 0
    for n in range(1, 8):
        for k in (1, 2, 3):
            for imbalance in (0.0, 0.03, 0.1, 0.5):
                for _ in range(3):
                    weights = [(1000.0, 200.0)[rng.next_below(2)] for _ in range(n)]
                    expected = k <= n and _brute_force_feasible(weights, k, imbalance)
                    assert oracle.feasible(weights, k, imbalance) == expected, (weights, k, imbalance)
                    cases += 1
    assert cases == 7 * 3 * 4 * 3


def test_standin_chunks_are_contiguous_and_balanced():
    circuit = q.parse_circuit(gen.synthetic_circuit(q.SplitMix64(2), 64, 4000))
    hg = q.circuit_to_hypergraph(circuit)
    weights = [int(w) for w in hg.node_weights]
    labels = standin_solver.chunk_labels(weights, 400)
    assert labels == sorted(labels) and set(labels) == set(range(400))
    assignment = q.PartitionAssignment(tuple(labels), 400)
    assert q.check_balance(hg, assignment, 0.2)
    assert checks.recount_km1(hg, labels, 400) == q.km1(hg, assignment)


def test_tracer_wraps_the_real_pipeline_and_restores_it():
    originals = {(module, attr): getattr(getattr(q, module) if module else q, attr)
                 for module, attr, _ in tracing.WRAPPED}
    circuit = q.parse_circuit(gen.synthetic_circuit(q.SplitMix64(4), 8, 40))
    tracer = tracing.Tracer()
    with tracer.wrapping(q), tracer.span(tracing.ROOT):
        q.run_hypergraph_pipeline(circuit, k=2, imbalance=0.1, seed=1, merge_threshold=2)
    assert originals == {(module, attr): getattr(getattr(q, module) if module else q, attr)
                         for module, attr, _ in tracing.WRAPPED}
    names = [s.name for s in tracer.spans]
    assert names == [tracing.ROOT, "pipeline.run", "hypergraph.build", "partitioner.solve",
                     "pipeline.trim", "pipeline.merge", "pipeline.dag"]
    assert all(s.parent == 1 for s in tracer.spans[2:])
    own = tracer.self_times()
    assert all(t >= 0 for t in own)
    assert abs(sum(own) - tracer.spans[0].duration) < 1e-9


def test_calibration_scales_by_the_bracketing_samples():
    sample = calibrate.sample()
    assert 0 < sample < 1
    assert calibrate._kernel() == calibrate._kernel()
    ref = calibrate.REFERENCE_S
    assert calibrate.scaled(2.0, ref, ref) == 2.0
    assert calibrate.scaled(2.0, ref, 3 * ref) == pytest.approx(1.0)
