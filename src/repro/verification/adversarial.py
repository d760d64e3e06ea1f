"""Exact worst-case analysis of a fixed algorithm against a model.

Where :mod:`repro.verification.solvability` quantifies over *algorithms*
(is any decision map good?), this module quantifies over *executions* for a
given algorithm: the exact worst number of distinct decisions an oblivious
adversary can force.  This measures the *achieved* ``k`` of each paper
algorithm and shows where a theorem's guarantee is conservative for the
specific witness it constructs.

The search space is generator sequences × input assignments (optionally ×
sampled supersets); for the paper's min-based algorithms the generators are
the binding choices, and the exhaustive-closure option removes the gap on
small models.
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Sequence
from itertools import product

from .._record import record
from ..agreement.algorithms import ObliviousAlgorithm
from ..agreement.execution import ExecutionResult, execute
from ..errors import VerificationError
from ..models.closed_above import ClosedAboveModel
from .exhaustive import exhaustive_inputs

__all__ = ["WorstCase", "worst_case_decisions", "achieved_k"]


@record
class WorstCase:
    """The most distinct decisions the adversary forced, with a witness."""

    distinct: int
    witness: ExecutionResult
    executions_searched: int

    def describe(self) -> str:
        return (
            f"worst case: {self.distinct} distinct decisions "
            f"(over {self.executions_searched} executions); witness inputs "
            f"{self.witness.inputs}"
        )


def worst_case_decisions(
    algorithm: ObliviousAlgorithm,
    model: ClosedAboveModel,
    values: Sequence[Hashable],
    superset_samples: int = 0,
    exhaustive_closure: bool = False,
    closure_budget: int = 1 << 14,
    rng: random.Random | None = None,
) -> WorstCase:
    """Maximise the number of distinct decided values over executions.

    With ``exhaustive_closure`` the result is the exact worst case over the
    entire model; otherwise it is exact over generator sequences and a
    lower bound in general (sampled supersets can only raise it).
    """
    values = tuple(values)
    if len(values) < 1:
        raise VerificationError("need at least one value")
    rng = rng or random.Random(0)
    if exhaustive_closure:
        pool = list(model.iter_graphs(max_graphs=closure_budget))
    else:
        pool = list(model.iter_generators())
    best: WorstCase | None = None
    searched = 0
    inputs_list = list(exhaustive_inputs(model.n, values))
    from ..graphs.closure import sample_superset

    for sequence in product(pool, repeat=algorithm.rounds):
        variants = [tuple(sequence)]
        if not exhaustive_closure:
            for _ in range(superset_samples):
                variants.append(tuple(sample_superset(g, rng) for g in sequence))
        for graphs in variants:
            for inputs in inputs_list:
                result = execute(algorithm, inputs, graphs)
                searched += 1
                distinct = len(set(result.decisions.values()))
                if best is None or distinct > best.distinct:
                    best = WorstCase(distinct, result, searched)
    assert best is not None
    return WorstCase(best.distinct, best.witness, searched)


def achieved_k(
    algorithm: ObliviousAlgorithm,
    model: ClosedAboveModel,
    values: Sequence[Hashable] | None = None,
    **kwargs,
) -> int:
    """The exact ``k`` the algorithm achieves (over the searched space).

    ``values`` defaults to ``n`` distinct values — enough to expose any
    worst case of a one-shot decision rule.
    """
    if values is None:
        values = tuple(range(model.n))
    return worst_case_decisions(algorithm, model, values, **kwargs).distinct
