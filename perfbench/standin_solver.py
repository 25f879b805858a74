#!/usr/bin/env python3
"""Stand-in external km1 solver for the many-parts workload.

It accepts the command line qcpart's external-solver adapter passes:

    standin_solver.py -h FILE -k K -e EPS -o km1 -m direct --seed S \\
        --write-partition-file=true

It reads the node weights from the hMETIS-dialect FILE and cuts the nodes,
in gate order, into K contiguous chunks: node v goes to the chunk that
holds the midpoint of its weight interval. That keeps every chunk within
``total / K + heaviest node``, so the labels meet the balance cap whenever
``EPS * ceil(total / K)`` covers the heaviest node. The labels, one per
line, go to ``FILE.part<K>`` next to the input. Exit status 1, and no label
file, if a chunk would exceed the cap. The result depends only on the file
and K; the seed is accepted and ignored.
"""

from __future__ import annotations

import argparse
import math
import sys


def read_node_weights(text: str) -> list[int]:
    """Node weights of an hMETIS-dialect file (unit weights when absent)."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    num_edges, num_nodes = int(lines[0][0]), int(lines[0][1])
    fmt = lines[0][2] if len(lines[0]) > 2 else "0"
    if fmt not in ("1", "11"):
        return [1] * num_nodes
    rows = lines[1 + num_edges : 1 + num_edges + num_nodes]
    if len(rows) != num_nodes:
        raise ValueError(f"expected {num_nodes} node weights, found {len(rows)}")
    return [int(row[0]) for row in rows]


def chunk_labels(weights: list[int], k: int) -> list[int]:
    """Contiguous gate-order chunks by weight midpoint (exact integer maths)."""
    total = sum(weights)
    labels = []
    before = 0
    for w in weights:
        labels.append(min(k - 1, k * (2 * before + w) // (2 * total)))
        before += w
    return labels


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("-h", dest="hgr", required=True)
    parser.add_argument("-k", type=int, required=True)
    parser.add_argument("-e", type=float, required=True)
    parser.add_argument("-o", default="km1")
    parser.add_argument("-m", default="direct")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--write-partition-file", default="true")
    args = parser.parse_args(argv)

    with open(args.hgr) as fh:
        weights = read_node_weights(fh.read())
    if not 1 <= args.k <= len(weights):
        print(f"k={args.k} outside [1, {len(weights)}]", file=sys.stderr)
        return 1
    labels = chunk_labels(weights, args.k)
    cap = (1.0 + args.e) * math.ceil(sum(weights) / args.k)
    loads = [0] * args.k
    for w, label in zip(weights, labels):
        loads[label] += w
    if max(loads) > cap:
        print(f"a chunk weighs {max(loads)}, over the cap {cap}", file=sys.stderr)
        return 1
    with open(f"{args.hgr}.part{args.k}", "w") as fh:
        fh.write("".join(f"{label}\n" for label in labels))
    return 0


if __name__ == "__main__":
    sys.exit(main())
