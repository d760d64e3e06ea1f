"""Colored (process-aware) one-round solvability.

The paper remarks (end of Sec 5) that its one-round lower bounds apply to
*general* algorithms because "a one round full information protocol is an
oblivious algorithm".  Formally, a general one-round decision map may
depend on the deciding process's identity — its variables are the vertices
``(p, view)`` of the chromatic protocol complex — while an oblivious map
(Def 2.5) is keyed by the flattened view alone.

This module implements the colored search so the remark can be *tested*:
:func:`decide_one_round_solvability_colored` quantifies over all colored
maps; comparing with the oblivious search on enumerable models checks that
the extra freedom never helps in one round.  (It cannot *hurt* — every
oblivious map is a colored map — so the interesting direction is colored
SAT ⟹ oblivious SAT.)
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from ..graphs.digraph import Digraph
from .solvability import (
    SolvabilityResult,
    _domains,
    _search_inputs,
    _solve_csp,
    index_views,
)

__all__ = ["decide_one_round_solvability_colored"]


def decide_one_round_solvability_colored(
    graphs: Sequence[Digraph],
    k: int,
    values: Sequence[Hashable] | None = None,
) -> SolvabilityResult:
    """Is there a *colored* one-round decision map for k-set agreement?

    Variables are ``(process, view)`` pairs; validity still restricts each
    variable to the values present in the view (the adversary argument is
    identity-independent).  Same soundness caveats as the oblivious search:
    UNSAT on a subset of a model is sound, SAT needs the full model.
    """
    graphs, values = _search_inputs(graphs, k, values)
    index, executions = index_views(graphs, values, colored=True)
    domains = _domains(view for _, view in index)
    return _solve_csp(index, executions, k, domains=domains)
