#!/usr/bin/env python3
"""Exact chromatic numbers of small q-Kneser graphs and hypergraphs.

Each value comes from a complete branch-and-bound search; the witness
coloring and, where the instance is a hypergraph, the reduction to its
co-occurrence graph are re-validated before printing.

Usage:
    python scripts/kneser_chromatic.py [--budget N]
"""

import argparse
import time

from netgap.errors import DEFAULT_BUDGET
from netgap.graphs import is_proper_coloring, is_proper_hypergraph_coloring
from netgap.qkneser import build_qkneser, build_qkneser_hyper, chromatic_number


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    args = parser.parse_args()

    print("== graphs qK_{2t:t} ==")
    for q, t in ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2)):
        g = build_qkneser(q, 2 * t, t)
        start = time.time()
        res = chromatic_number(g, args.budget)
        assert res.exact and is_proper_coloring(g, res.coloring)
        print(
            f"qK_{{{2 * t}:{t}}} over F_{q}: {g.num_vertices} vertices, "
            f"clique >= {len(res.clique)}, chi = {res.chi}  ({time.time() - start:.2f}s)"
        )

    print("\n== hypergraphs qK^h_{ht:t} ==")
    for q, t, h in ((2, 1, 3), (2, 1, 4)):
        hyper = build_qkneser_hyper(q, t, h)
        start = time.time()
        res = chromatic_number(hyper, args.budget)
        assert res.exact and is_proper_hypergraph_coloring(hyper, res.coloring)
        print(
            f"qK^{h}_{{{h * t}:{t}}} over F_{q}: {hyper.num_vertices} vertices, "
            f"{len(hyper.hyperedges)} hyperedges, chi = {res.chi}  ({time.time() - start:.2f}s)"
        )


if __name__ == "__main__":
    main()
