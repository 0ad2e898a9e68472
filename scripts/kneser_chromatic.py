#!/usr/bin/env python3
"""Exact chromatic numbers of small q-Kneser graphs and hypergraphs.

Each value comes from a complete branch-and-bound search; the witness
coloring is replayed as a certificate before printing, and a rejected
witness or an undecided search stops the script.  For h >= 2 two
t-subspaces of F_q^{ht} lie in a common direct-sum h-set iff they meet
trivially (extend their sum by h - 2 spaces of a complement), so the
hypergraph qK^h_{ht:t} has exactly the proper colorings of the graph
qK_{ht:t}, and its chromatic number is computed on that graph.

Usage:
    python scripts/kneser_chromatic.py [--budget N]
"""

import argparse
import time

from netgap.certs import check_certificate
from netgap.errors import DEFAULT_BUDGET
from netgap.graphs import coloring_certificate
from netgap.qkneser import build_qkneser, chromatic_number


def _chi(q: int, n: int, m: int, budget: int):
    """qK_{n:m} over F_q, its chromatic number and the seconds it took;
    raises unless the search was exact and the certificate replays."""
    desc = f"qK_{{{n}:{m}}} over F_{q}"
    g = build_qkneser(q, n, m)
    start = time.time()
    res = chromatic_number(g, budget)
    ok, message = check_certificate(coloring_certificate(g, res.coloring, desc))
    if not (res.exact and ok):
        raise RuntimeError(f"{desc}: exact={res.exact}, certificate: {message}")
    return desc, g, res, time.time() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    args = parser.parse_args()

    print("== graphs qK_{2t:t} ==")
    for q, t in ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2)):
        desc, g, res, secs = _chi(q, 2 * t, t, args.budget)
        print(
            f"{desc}: {g.num_vertices} vertices, "
            f"clique >= {len(res.clique)}, chi = {res.chi}  ({secs:.2f}s)"
        )

    print("\n== hypergraphs qK^h_{ht:t}, colored as the graphs qK_{ht:t} ==")
    for q, t, h in ((2, 1, 3), (2, 1, 4)):
        desc, g, res, secs = _chi(q, h * t, t, args.budget)
        print(f"qK^{h}_{{{h * t}:{t}}} over F_{q}: chi = chi({desc}) = {res.chi}  ({secs:.2f}s)")


if __name__ == "__main__":
    main()
