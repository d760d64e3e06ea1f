"""Exact multi-round solvability for oblivious algorithms.

Generalises the one-round CSP of :mod:`repro.verification.solvability`:
an ``r``-round oblivious algorithm is a decision map over the *flattened*
knowledge accumulated through ``r`` rounds (Def 2.5 — oblivious algorithms
remember pairs, not history).  Executions are sequences of graphs; for a
model given by an explicit graph pool we quantify over all ``pool^r``
sequences and all input assignments.

Soundness mirrors the one-round case:

* UNSAT over a subset of the model's graphs ⟹ no oblivious algorithm on
  the model (certifies Thm 6.10/6.11 instances);
* SAT over the complete allowed set ⟹ a genuine oblivious algorithm.

The search cost grows as ``|pool|^r · |values|^n`` executions, so this is a
small-``n``, small-``r`` instrument.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from itertools import product

from ..agreement.views import initial_oblivious_view, oblivious_round
from ..errors import VerificationError
from ..graphs.digraph import Digraph
from .backends.bitset import reduce_executions
from .solvability import SolvabilityResult, _search_inputs, _solve_csp

__all__ = ["decide_multi_round_solvability"]


def decide_multi_round_solvability(
    graphs: Sequence[Digraph],
    rounds: int,
    k: int,
    values: Sequence[Hashable] | None = None,
) -> SolvabilityResult:
    """Decide ``r``-round oblivious solvability of ``k``-set agreement.

    ``graphs`` is the per-round pool (each round's graph drawn from it
    independently — the oblivious adversary); ``values`` defaults to
    ``0..k``.
    """
    graphs, values = _search_inputs(graphs, k, values)
    if rounds < 1:
        raise VerificationError(f"rounds must be positive, got {rounds}")
    n = graphs[0].n

    view_index: dict = {}
    executions: list[tuple[int, ...]] = []
    for sequence in product(graphs, repeat=rounds):
        for assignment in product(values, repeat=n):
            views = [initial_oblivious_view(p, assignment[p]) for p in range(n)]
            for g in sequence:
                views = oblivious_round(views, g)
            exec_views = set()
            for view in views:
                idx = view_index.setdefault(view, len(view_index))
                exec_views.add(idx)
            executions.append(tuple(sorted(exec_views)))
    executions = reduce_executions(list(dict.fromkeys(executions)))
    return _solve_csp(view_index, executions, k, rounds=rounds)
