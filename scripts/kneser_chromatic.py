#!/usr/bin/env python3
"""Exact chromatic numbers of small q-Kneser graphs and hypergraphs.

Each value comes from a complete branch-and-bound search; the witness
coloring (of the hypergraph itself, where the instance is one) is
replayed as a certificate before printing, and a rejected witness or an
undecided search stops the script.

Usage:
    python scripts/kneser_chromatic.py [--budget N]
"""

import argparse
import time

from netgap.certs import check_certificate
from netgap.errors import DEFAULT_BUDGET
from netgap.graphs import coloring_certificate, hypergraph_coloring_certificate
from netgap.qkneser import build_qkneser, build_qkneser_hyper, chromatic_number


def _certify(res, cert: dict) -> None:
    """Raise unless the search was exact and the certificate replays."""
    ok, message = check_certificate(cert)
    if not (res.exact and ok):
        raise RuntimeError(f"{cert['context']}: exact={res.exact}, certificate: {message}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    args = parser.parse_args()

    print("== graphs qK_{2t:t} ==")
    for q, t in ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2)):
        desc = f"qK_{{{2 * t}:{t}}} over F_{q}"
        g = build_qkneser(q, 2 * t, t)
        start = time.time()
        res = chromatic_number(g, args.budget)
        _certify(res, coloring_certificate(g, res.coloring, desc))
        print(
            f"{desc}: {g.num_vertices} vertices, "
            f"clique >= {len(res.clique)}, chi = {res.chi}  ({time.time() - start:.2f}s)"
        )

    print("\n== hypergraphs qK^h_{ht:t} ==")
    for q, t, h in ((2, 1, 3), (2, 1, 4)):
        desc = f"qK^{h}_{{{h * t}:{t}}} over F_{q}"
        hyper = build_qkneser_hyper(q, t, h)
        start = time.time()
        res = chromatic_number(hyper, args.budget)
        _certify(res, hypergraph_coloring_certificate(hyper, res.coloring, desc))
        print(
            f"{desc}: {hyper.num_vertices} vertices, "
            f"{len(hyper.hyperedges)} hyperedges, chi = {res.chi}  ({time.time() - start:.2f}s)"
        )


if __name__ == "__main__":
    main()
