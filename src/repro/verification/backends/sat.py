"""CNF encoding of the solvability CSP for `python-sat`.

Encoding, per fixed ``k``:

* one selector variable per (view, candidate value) — validity is
  structural because only values from the view's own domain get vars;
* one at-least-one clause per view (a decision map is total);
* per candidate value of each execution, a *used* variable implied by
  every selector of that value in the execution's views;
* per execution, ``≤ k`` of its used vars true, via python-sat's
  sequential-counter cardinality encoding (``EncType.seqcounter``).

No at-most-one clause per view is needed: the decoder takes the lowest
true selector, and any extra true selectors only make the cardinality
constraint harder, never easier — a satisfying model stays satisfying
when projected to one value per view.

The rows arrive subsumption-reduced from the CSP builders and are
encoded as given, so ``reduced_count`` is their number, as in the other
backends — the cross-check mode asserts it.

The module imports `python-sat` lazily and only when
:func:`repro.verification.backends.sat_available` said it is importable;
the dependency stays optional at runtime.
"""

from __future__ import annotations

__all__ = ["solve"]


def solve(
    executions: list[tuple[int, ...]],
    domains: list[tuple[int, ...]],
    k: int,
) -> tuple[bool, list[int | None], int]:
    """Encode to CNF, solve, decode the model back to an assignment."""
    from pysat.card import CardEnc, EncType
    from pysat.solvers import Solver

    nviews = len(domains)

    next_id = 1
    # sel[idx][value] -> CNF variable "view idx decides value".
    sel: list[dict[int, int]] = []
    clauses: list[list[int]] = []
    for domain in domains:
        row = {}
        for value in domain:
            row[value] = next_id
            next_id += 1
        sel.append(row)
        clauses.append(list(row.values()))  # at-least-one per view

    card_blocks: list[list[int]] = []
    for row_views in executions:
        candidates: dict[int, list[int]] = {}
        for idx in row_views:
            for value, var in sel[idx].items():
                candidates.setdefault(value, []).append(var)
        if len(candidates) <= k:
            continue  # can't exceed k distinct values, no constraint
        used_vars = []
        for value, selectors in sorted(candidates.items()):
            used = next_id
            next_id += 1
            used_vars.append(used)
            for var in selectors:
                clauses.append([-var, used])  # sel -> used
        card_blocks.append(used_vars)

    top = next_id - 1
    for used_vars in card_blocks:
        enc = CardEnc.atmost(
            lits=used_vars, bound=k, top_id=top, encoding=EncType.seqcounter
        )
        clauses.extend(enc.clauses)
        top = max(top, enc.nv)

    with Solver(name="m22", bootstrap_with=clauses) as solver:
        if not solver.solve():
            return False, [None] * nviews, len(executions)
        model = set(solver.get_model())

    assignment: list[int | None] = [None] * nviews
    for idx, row in enumerate(sel):
        for value in sorted(row):
            if row[value] in model:
                assignment[idx] = value
                break
    return True, assignment, len(executions)
