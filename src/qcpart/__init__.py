"""Fidelity-aware hypergraph partitioning of quantum circuits.

The pipeline converts a circuit into a weighted hypergraph (one node per
gate, gate-level and temporal hyperedges), partitions it under the km1
objective with a balance constraint, trims each part to its gates and a
local qubit map, optionally merges heavily entangled parts, and derives a
DAG over the parts in index order (an edge per pair sharing a qubit).
Metrics compare the result against a block-based baseline on qubit cuts,
SWAP overhead, fidelity and depth.
"""

from .baseline import BaselineConfig, FixtureError, block_partition, builtin_fixture_text, load_fixture, remap_groups
from .circuits import (
    CCX,
    CNOT,
    SWAP,
    Circuit,
    CircuitError,
    CircuitParseError,
    ErrorModel,
    Gate,
    GateKind,
    H,
    benchmark_circuit,
    ccx,
    cnot,
    depth,
    h,
    parse_circuit,
    serialize_circuit,
    swap,
)
from .hypergraph import (
    HgrFormatError,
    HgrMode,
    Hyperedge,
    Hypergraph,
    circuit_to_hypergraph,
    normalize_weights,
    read_hgr,
    write_hgr,
)
from .metrics import (
    ComparisonReport,
    MethodReport,
    PartitionMetrics,
    SwapEstimate,
    build_report,
    cut_qubits,
    estimate_swaps,
    fidelity,
    format_report,
    method_report,
    partition_metrics,
    report_to_dict,
    total_fidelity,
    validate_gate_counts,
)
from .partitioner import (
    INTERNAL,
    PartitionAssignment,
    SolverConfig,
    SolverError,
    check_balance,
    dynamic_k,
    km1,
    partition,
    random_balanced_assignment,
)
from .pipeline import (
    DependencyDag,
    Partition,
    PipelineResult,
    build_dependency_graph,
    create_trimmed_partitions,
    merge_partitions,
    run_hypergraph_pipeline,
)
from .rng import SplitMix64

__version__ = "0.1.0"
