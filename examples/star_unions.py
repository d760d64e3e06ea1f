#!/usr/bin/env python3
"""The paper's flagship tight family: symmetric unions of s stars (Thm 6.13).

For every (n, s) we compute γ_dist, the Thm 5.4 lower bound, the best upper
bound, confirm the closed forms n-s (impossible) / n-s+1 (solvable), and run
the FloodMin witness against random and minimal adversaries.  This sweeps
the whole tightness frontier of Sec 5's worked example.

Run:  python examples/star_unions.py [max_n]
"""

from __future__ import annotations

import random
import sys

from repro.agreement import FloodMin, KSetAgreement, random_trials
from repro.analysis.render import render_table
from repro.bounds import (
    best_upper_bound,
    lower_bound_general,
    lower_bound_star_unions,
)
from repro.combinatorics import (
    distributed_domination_number,
    max_covering_number,
)
from repro.graphs import symmetric_closure, union_of_stars
from repro.models import symmetric_closed_above


def sweep(max_n: int) -> tuple[list[str], list[list[object]]]:
    headers = [
        "n", "s",
        "γ_dist", "max-cov_1",
        "impossible k (Thm 5.4)", "closed form n-s",
        "solvable k (Thm 3.4)", "closed form n-s+1",
        "FloodMin trials",
    ]
    rows: list[list[object]] = []
    rng = random.Random(42)
    for n in range(3, max_n + 1):
        for s in range(1, n):
            sym = sorted(
                symmetric_closure([union_of_stars(n, tuple(range(s)))])
            )
            lower = lower_bound_general(sym)
            upper = best_upper_bound(sym)
            closed = lower_bound_star_unions(n, s)
            model = symmetric_closed_above(sym)
            task = KSetAgreement(upper.k, range(upper.k + 1))
            trials = random_trials(FloodMin(1), model, task, 25, rng)
            rows.append(
                [
                    n, s,
                    distributed_domination_number(sym),
                    max_covering_number(sym, 1),
                    lower.k, closed.k,
                    upper.k, n - s + 1,
                    "OK" if all(t.ok for t in trials) else "FAIL",
                ]
            )
    return headers, rows


def main() -> None:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    headers, rows = sweep(max_n)
    print("Thm 6.13 — symmetric unions of s stars on n processes")
    print("(n-s)-set agreement impossible, (n-s+1)-set solvable: TIGHT\n")
    print(render_table(headers, rows))
    mismatches = [
        r for r in rows if r[4] != r[5] or r[6] != r[7] or r[8] != "OK"
    ]
    print()
    if mismatches:
        print(f"!! {len(mismatches)} row(s) deviate from the paper")
        raise SystemExit(1)
    print("All rows match the paper's closed forms.")


if __name__ == "__main__":
    main()
