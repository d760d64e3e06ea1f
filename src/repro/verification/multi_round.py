"""Exact multi-round solvability for oblivious algorithms.

Generalises the one-round CSP of :mod:`repro.verification.solvability`:
an ``r``-round oblivious algorithm is a decision map over the *flattened*
knowledge accumulated through ``r`` rounds (Def 2.5 — oblivious algorithms
remember pairs, not history).  Executions are sequences of graphs; for a
model given by an explicit graph pool we quantify over all ``pool^r``
sequences and all input assignments.

A process's oblivious view after the rounds ``G_1, ..., G_r`` is the set
of ``(q, input_q)`` pairs whose process reaches it along a path through
those graphs: exactly its one-round view in the path product
``G_1 ⊗ ... ⊗ G_r`` (Sec 6.1).  So the ``r``-round search is the
one-round search over ``S^r``, every ``r``-fold product of the pool
(:func:`~repro.graphs.operations.set_power`), and its witness map is an
``r``-round decision map.

Soundness mirrors the one-round case:

* UNSAT over a subset of the model's graphs ⟹ no oblivious algorithm on
  the model (certifies Thm 6.10/6.11 instances);
* SAT over the complete allowed set ⟹ a genuine oblivious algorithm.

The search cost grows as ``|S^r| · |values|^n`` executions, so this is a
small-``n``, small-``r`` instrument.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from .._record import replace
from ..errors import VerificationError
from ..graphs.digraph import Digraph
from ..graphs.operations import set_power
from .solvability import SolvabilityResult, SolvabilitySearch, _search_inputs

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
    ``0..k``.  Unmemoized: the one-round search runs on ``S^r`` every
    call.
    """
    graphs, values = _search_inputs(graphs, k, values)
    if rounds < 1:
        raise VerificationError(f"rounds must be positive, got {rounds}")
    products = sorted(set_power(graphs, rounds))
    result = SolvabilitySearch(products, k, values).solve()
    return replace(result, rounds=rounds)
