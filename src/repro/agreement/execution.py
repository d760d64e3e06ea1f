"""Round-based execution engine.

Runs an oblivious algorithm against a communication model driven by an
adversary, or against an explicit scripted graph sequence, and checks the
resulting decisions against a :class:`~repro.agreement.task.KSetAgreement`
instance.
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Mapping, Sequence

from .._record import record
from ..errors import AlgorithmError
from ..graphs.digraph import Digraph
from ..models.adversary import Adversary, RandomAdversary
from ..models.communication import CommunicationModel
from .algorithms import ObliviousAlgorithm
from .task import AgreementOutcome, KSetAgreement
from .views import ObliviousView, run_oblivious

__all__ = ["ExecutionResult", "execute", "execute_with_adversary", "random_trials"]


@record
class ExecutionResult:
    """Everything observable about one finished execution."""

    inputs: dict[int, Hashable]
    graphs: tuple[Digraph, ...]
    views: tuple[ObliviousView, ...]
    decisions: dict[int, Hashable]
    outcome: AgreementOutcome | None = None

    @property
    def ok(self) -> bool:
        """True iff checked and both task properties hold."""
        return self.outcome is not None and self.outcome.ok


def execute(
    algorithm: ObliviousAlgorithm,
    inputs: Mapping[int, Hashable],
    graphs: Sequence[Digraph],
    task: KSetAgreement | None = None,
) -> ExecutionResult:
    """Run the algorithm on a scripted sequence of graphs.

    The sequence length must equal the algorithm's round count; decisions
    are taken on the final oblivious views.
    """
    graphs = tuple(graphs)
    if len(graphs) != algorithm.rounds:
        raise AlgorithmError(
            f"{algorithm.name()} needs {algorithm.rounds} rounds, "
            f"got a script of {len(graphs)}"
        )
    views = run_oblivious(inputs, graphs)
    decisions = {p: algorithm.decide(view) for p, view in enumerate(views)}
    outcome = task.check(inputs, decisions) if task is not None else None
    return ExecutionResult(
        inputs=dict(inputs),
        graphs=graphs,
        views=tuple(views),
        decisions=decisions,
        outcome=outcome,
    )


def execute_with_adversary(
    algorithm: ObliviousAlgorithm,
    inputs: Mapping[int, Hashable],
    adversary: Adversary,
    task: KSetAgreement | None = None,
) -> ExecutionResult:
    """Run the algorithm with graphs chosen round-by-round by an adversary."""
    graphs = [
        adversary.graph_for_round(r) for r in range(algorithm.rounds)
    ]
    return execute(algorithm, inputs, graphs, task)


def random_trials(
    algorithm: ObliviousAlgorithm,
    model: CommunicationModel,
    task: KSetAgreement,
    trials: int,
    rng: random.Random,
) -> list[ExecutionResult]:
    """Monte-Carlo harness: random inputs and random model executions.

    Returns every trial's result; callers typically assert ``all(r.ok)``.
    """
    if trials < 1:
        raise AlgorithmError(f"need at least one trial, got {trials}")
    adversary = RandomAdversary(model, rng)
    values = task.values
    results = []
    for _ in range(trials):
        inputs = {p: rng.choice(values) for p in range(model.n)}
        results.append(execute_with_adversary(algorithm, inputs, adversary, task))
    return results
