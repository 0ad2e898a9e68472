#!/usr/bin/env python3
"""End-to-end reproduction of the desk-scale gap results.

Resolves q_s, q_v, and the gap exactly (with certified searches) for the
small Kneser and full combination networks, prints the Kneser gap table,
and evaluates the closed-form bounds next to the exact values.

Usage:
    python scripts/reproduce_gap_results.py [--budget N]
"""

import argparse
import time

from netgap.errors import DEFAULT_BUDGET
from netgap.gaplab import gap_exact, gap_formulas, gap_table_rows, psi
from netgap.networks import build_butterfly, build_combination, build_kneser


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    args = parser.parse_args()

    print("== exact gaps on desk-scale instances ==")
    instances = [
        ("butterfly", build_butterfly()),
        ("K_{2,1;2}", build_kneser(2, 1, 2)),
        ("K_{3,1;2}", build_kneser(3, 1, 2)),
        ("K_{2,2;2}", build_kneser(2, 2, 2)),
        ("K_{3,2;2}", build_kneser(3, 2, 2)),
    ] + [(f"N_{{2,{r},2}}", build_combination(2, r, 2)) for r in range(3, 7)] + [
        (f"N_{{3,{r},3}}", build_combination(3, r, 3)) for r in (6, 7)
    ] + [(f"N_{{4,{r},4}}", build_combination(4, r, 4)) for r in (7, 8)]
    for name, net in instances:
        start = time.time()
        report = gap_exact(net, args.budget)
        print(
            f"{name:>12}: q_v={report.qv.value} q_s={report.qs.value} "
            f"gap={report.gap}  [{report.methods}]  ({time.time() - start:.2f}s)"
        )

    print("\n== Kneser gap table (closed forms, exact cross-check where q^t <= 4) ==")
    for row in gap_table_rows(qs=(2, 3), ts=(1, 2), budget=args.budget):
        print(
            f"{row['network']:>12}: q_v={row['q_v']:>2} q_s={row['q_s']:>2} "
            f"gap={row['gap']}  [{row['methods']}]"
        )

    print("\n== closed-form bounds ==")
    for q, t in ((2, 2), (3, 2), (2, 3), (5, 2)):
        res = gap_formulas("kneser-h2", q=q, t=t)
        flag = "" if res.hypotheses_ok else " (outside hypotheses)"
        print(f"two-message Kneser gap at (q={q}, t={t}): {res.value}{flag}")
    for h, r in ((2, 5), (3, 5), (3, 6), (4, 7), (4, 8)):
        res = gap_formulas("combination-upper", h=h, r=r)
        print(f"full combination upper bound at (h={h}, r={r}): {res.value}")
    for q, t, h in ((2, 3, 3), (2, 4, 3), (3, 3, 3)):
        res = gap_formulas("kneser-h3-lower", q=q, t=t, h=h)
        print(f"h>=3 Kneser lower bound at (q={q}, t={t}, h={h}): {res.value}")
    print(f"\npsi spot check: psi(5)={psi(5)} psi(6)={psi(6)} psi(10)={psi(10)}")


if __name__ == "__main__":
    main()
