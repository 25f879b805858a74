"""Command-line front end: convert, partition and compare subcommands."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import baseline as baseline_mod
from . import metrics as metrics_mod
from .circuits import Circuit, CircuitError, benchmark_circuit, parse_circuit
from .hypergraph import HgrMode, circuit_to_hypergraph, write_hgr
from .partitioner import INTERNAL, SolverError, dynamic_k
from .pipeline import DependencyDag, Partition, run_hypergraph_pipeline

SOLVER_ENV_VAR = "QCPART_SOLVER_BIN"


def _load_circuit(args) -> Circuit:
    if args.bench:
        return benchmark_circuit(args.bench)
    with open(args.input) as fh:
        return parse_circuit(fh.read())


def _resolve_k(k: int | None, block_size: int | None, circuit: Circuit) -> int:
    if k is not None:
        return k
    if block_size is None:
        raise SolverError("either --k or --block-size is required")
    return dynamic_k(len(circuit.gates), circuit.num_qubits, block_size)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _format_partitions(parts: list[Partition]) -> str:
    lines = []
    for idx, part in enumerate(parts):
        lines.append(f"Partition {idx}:")
        lines.append(f"- Qubit Map: {part.qubit_map}")
        lines.append(f"- Number of Gates: {len(part.gates)}")
        lines.append("- Gates:")
        for n, gate in enumerate(part.gates, start=1):
            local = ", ".join(str(part.qubit_map[q]) for q in gate.qubits)
            global_ = ", ".join(str(q) for q in gate.qubits)
            lines.append(f"  {n}. {gate.kind.name}@(local: {local}; global: {global_})")
        lines.append("")
    return "\n".join(lines)


def _format_dag(dag: DependencyDag) -> str:
    lines = ["Dependency Graph:", "-----------------"]
    for i, j, shared in dag.edges:
        shared_str = "{" + ", ".join(str(q) for q in sorted(shared)) + "}"
        lines.append(f"Partition {i} -> Partition {j} | Shared qubits: {shared_str}")
    lines.append("")
    lines.append(f"Total dependencies: {dag.num_edges}")
    return "\n".join(lines) + "\n"


def cmd_convert(args) -> int:
    circuit = _load_circuit(args)
    hg = circuit_to_hypergraph(circuit)
    text = write_hgr(hg, HgrMode(args.mode))
    _emit(text, args.out)
    print(f"nodes: {hg.num_nodes} hyperedges: {hg.num_edges}", file=sys.stderr)
    return 0


def _pipeline_from_args(args, circuit: Circuit):
    backend = args.solver_binary or os.environ.get(SOLVER_ENV_VAR) or INTERNAL
    return run_hypergraph_pipeline(
        circuit,
        k=_resolve_k(args.k, args.block_size, circuit),
        imbalance=args.imbalance,
        seed=args.seed,
        backend=backend,
        merge_threshold=getattr(args, "merge_threshold", None),
    )


def cmd_partition(args) -> int:
    circuit = _load_circuit(args)
    result = _pipeline_from_args(args, circuit)
    parts = list(result.partitions)
    if args.format == "json":
        doc = {
            "num_partitions": len(parts),
            "labels": list(result.assignment.labels),
            "partitions": [
                {
                    "qubit_map": {str(g): l for g, l in p.qubit_map.items()},
                    "gates": [
                        [g.kind.name, list(g.qubits)] for g in p.subcircuit.gates
                    ],
                }
                for p in parts
            ],
            "dag_edges": [
                [i, j, sorted(shared)] for i, j, shared in result.dag.edges
            ],
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        text = _format_partitions(parts) + "\n" + _format_dag(result.dag)
        _emit(text, args.out)
    return 0


def cmd_compare(args) -> int:
    circuit = _load_circuit(args)
    if args.block_size is None and not args.baseline_fixture:
        print("error: --block-size is required for compare", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    if args.baseline_fixture:
        with open(args.baseline_fixture) as fh:
            groups = baseline_mod.load_fixture(fh.read(), circuit)
    else:
        groups = baseline_mod.block_partition(
            circuit, baseline_mod.BaselineConfig(args.block_size)
        )
    baseline_parts = baseline_mod.remap_groups(circuit, groups)
    t_baseline = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = _pipeline_from_args(args, circuit)
    t_hypergraph = time.perf_counter() - t0

    report = metrics_mod.build_report(
        circuit,
        baseline_parts,
        list(result.partitions),
        timings={"baseline": t_baseline, "hypergraph": t_hypergraph},
        heuristic_on=args.heuristic,
        seed=args.seed,
    )
    if args.format == "json":
        _emit(
            json.dumps(metrics_mod.report_to_dict(report), indent=2, sort_keys=True)
            + "\n",
            args.out,
        )
    else:
        _emit(metrics_mod.format_report(report) + "\n", args.out)
    if not (report.baseline.gate_counts_valid and report.hypergraph.gate_counts_valid):
        return 2
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--bench", choices=["s", "m", "l"], help="built-in benchmark")
    source.add_argument("--input", help="circuit text file")
    parser.add_argument("--out", help="write output to this path instead of stdout")


def _add_solver_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, help="explicit part count")
    parser.add_argument("--block-size", type=int, help="block size for dynamic k")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--imbalance", type=float, default=0.05)
    parser.add_argument(
        "--solver-binary",
        help=f"external km1 solver binary (or set ${SOLVER_ENV_VAR})",
    )
    parser.add_argument("--format", choices=["text", "json"], default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcpart",
        description="Fidelity-aware quantum circuit partitioning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_convert = sub.add_parser("convert", help="write the weighted hypergraph file")
    _add_common(p_convert)
    p_convert.add_argument(
        "--mode",
        choices=[m.value for m in HgrMode],
        default=HgrMode.PAPER_NORMALIZED.value,
    )
    p_convert.set_defaults(func=cmd_convert)

    p_partition = sub.add_parser("partition", help="run the partitioning pipeline")
    _add_common(p_partition)
    _add_solver_options(p_partition)
    p_partition.add_argument("--merge-threshold", type=int, help="merge parts sharing N+ qubits")
    p_partition.set_defaults(func=cmd_partition)

    p_compare = sub.add_parser("compare", help="compare against the block baseline")
    _add_common(p_compare)
    _add_solver_options(p_compare)
    p_compare.add_argument("--baseline-fixture", help="replay groups from a fixture")
    p_compare.add_argument(
        "--heuristic", action="store_true", help="enable the SWAP waiver heuristic"
    )
    p_compare.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, CircuitError, SolverError, baseline_mod.FixtureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
