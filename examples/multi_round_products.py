#!/usr/bin/env python3
"""Multiple rounds: products, their pitfalls, and bound decay (Sec 6).

1. The Sec 6.1 counterexample: closure-above is not product-invariant —
   we exhibit a graph in ↑(C6 ⊗ C6) that no product of supergraphs of C6
   realises.
2. Bound decay: γ(C_n^r) shrinks with r (Thm 6.3), the covering sequences
   say when FloodMin reaches consensus (Thm 6.7), and the oblivious lower
   bounds (Thm 6.10) track from below.

Run:  python examples/multi_round_products.py
"""

from __future__ import annotations

from repro.agreement import FloodMin, KSetAgreement
from repro.analysis.render import render_table
from repro.bounds import (
    lower_bound_simple_multi_round,
    upper_bound_covering_sequence,
    upper_bound_simple_multi_round,
)
from repro.combinatorics import covering_sequence
from repro.graphs import cycle, graph_power
from repro.models import closure_product_gap, simple_closed_above
from repro.verification import verify_algorithm


def main() -> None:
    # ------------------------------------------------------------------
    # 1. The product/closure gap on C6 (Sec 6.1).
    # ------------------------------------------------------------------
    c6 = cycle(6)
    witnesses = closure_product_gap(c6, c6, max_witnesses=3)
    squared = graph_power(c6, 2)
    print("Sec 6.1 — closure-above is not invariant under ⊗:")
    print(f"  C6 ⊗ C6 has proper edges {sorted(squared.proper_edges())}")
    for w in witnesses:
        extra = sorted(set(w.proper_edges()) - set(squared.proper_edges()))
        print(
            f"  adding just {extra} gives a graph in ↑(C6⊗C6) that NO "
            "product ↑C6 ⊗ ↑C6 realises"
        )
    print()

    # ------------------------------------------------------------------
    # 2. Bound decay for directed cycles.
    # ------------------------------------------------------------------
    rows = []
    for n in (5, 6, 7):
        g = cycle(n)
        for r in (1, 2, 3):
            upper = upper_bound_simple_multi_round(g, r)
            lower = lower_bound_simple_multi_round(g, r)
            rows.append([f"C{n}", r, lower.k, upper.k,
                         "tight" if upper.k == lower.k + 1 else "gap"])
    print("Thm 6.3 / 6.10 — γ(G^r) brackets per round count:")
    print(render_table(
        ["G", "r", "impossible k", "solvable k", "status"], rows
    ))
    print()

    # ------------------------------------------------------------------
    # 3. Covering sequences drive consensus (Thm 6.7), verified end-to-end.
    # ------------------------------------------------------------------
    g = cycle(5)
    seq = covering_sequence(g, 1)
    bound = upper_bound_covering_sequence(g, 1)
    print(f"covering sequence of C5 (i=1): {seq} -> consensus after "
          f"{bound.rounds} rounds")
    model = simple_closed_above(g)
    task = KSetAgreement(1, range(2))
    report = verify_algorithm(
        FloodMin(bound.rounds), model, task, superset_samples=3
    )
    print(f"FloodMin({bound.rounds}) solves consensus on ↑C5: "
          f"{'OK' if report.ok else 'FAIL'} "
          f"({report.executions} executions)")
    shorter = verify_algorithm(
        FloodMin(bound.rounds - 1), model, task, superset_samples=0,
        stop_at_first_failure=True,
    )
    print(f"FloodMin({bound.rounds - 1}) fails as predicted: "
          f"{'yes' if not shorter.ok else 'NO (unexpected)'}")


if __name__ == "__main__":
    main()
