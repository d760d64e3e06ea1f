#!/usr/bin/env python3
"""Classical Heard-Of predicates as closed-above models (Sec 2.1).

Shows how the library covers the models the paper's introduction motivates:
non-empty kernel, non-split, and the tournament property, plus multi-round
behaviour of the kernel model (it stays tight at every round count because
star products are idempotent).

Run:  python examples/heard_of_models.py
"""

from __future__ import annotations

import random

from repro.agreement import FloodMin, KSetAgreement, random_trials
from repro.analysis.render import render_table
from repro.bounds import bound_report
from repro.graphs import has_nonempty_kernel, is_non_split, is_tournament
from repro.models import (
    NonSplitModel,
    TournamentModel,
    nonempty_kernel_model,
    product_model,
)


def main() -> None:
    n = 4
    rng = random.Random(7)

    # ------------------------------------------------------------------
    # Non-empty kernel: closed-above, generated by Sym(star).
    # ------------------------------------------------------------------
    kernel = nonempty_kernel_model(n)
    print(f"non-empty kernel model on n={n}: {kernel!r}")
    report = bound_report(sorted(kernel.generators))
    print(report.describe())

    rows = []
    for rounds in (1, 2, 3):
        powered = product_model(kernel, rounds)
        r = bound_report(sorted(powered.generators))
        rows.append([rounds, r.best_lower.k, r.best_upper.k, r.tight])
    print()
    print("kernel model across rounds (star products are idempotent):")
    print(render_table(["rounds", "impossible k", "solvable k", "tight"], rows))
    print()

    # FloodMin achieves the upper bound on random kernel executions.
    task = KSetAgreement(report.best_upper.k, range(report.best_upper.k + 1))
    trials = random_trials(FloodMin(1), kernel, task, 50, rng)
    print(
        f"FloodMin @ k={task.k}: "
        f"{'OK' if all(t.ok for t in trials) else 'FAIL'} over {len(trials)} "
        "random kernel executions"
    )
    sample = kernel.sample_graph(rng)
    assert has_nonempty_kernel(sample)
    print()

    # ------------------------------------------------------------------
    # Non-split and tournament: predicate models (not closed-above).
    # ------------------------------------------------------------------
    non_split = NonSplitModel(n)
    tournament = TournamentModel(n)
    print(f"{non_split!r}: sampled graphs all non-split:",
          all(is_non_split(non_split.sample_graph(rng)) for _ in range(20)))
    print(f"{tournament!r}: sampled graphs all tournaments:",
          all(is_tournament(tournament.sample_graph(rng)) for _ in range(20)))

    # Non-split guarantees approximate consensus in the literature; here we
    # just exhibit that FloodMin gives n-1 set agreement trivially and
    # that the tournament model's closed-above relaxation is much weaker
    # than wait-free shared memory.
    task = KSetAgreement(n - 1, range(n))
    trials = random_trials(FloodMin(1), non_split, task, 50, rng)
    print(
        f"FloodMin @ k={n - 1} on non-split executions: "
        f"{'OK' if all(t.ok for t in trials) else 'FAIL'}"
    )


if __name__ == "__main__":
    main()
