"""Automated tightness analysis: paper interval vs exact frontier.

For a model small enough to enumerate, :func:`exact_one_round_frontier`
finds the smallest solvable ``k`` by CSP search over the *complete* allowed
graph set, and :func:`analyze_tightness` compares it against the paper's
``(lower, upper]`` interval — the engine behind experiment E10.
"""

from __future__ import annotations

from .._record import record
from ..bounds.report import BoundReport, bound_report
from ..errors import VerificationError
from ..models.closed_above import ClosedAboveModel
from .solvability import decide_one_round_solvability

__all__ = ["TightnessAnalysis", "exact_one_round_frontier", "analyze_tightness"]


@record
class TightnessAnalysis:
    """Comparison of the paper's interval with the exact frontier."""

    report: BoundReport
    exact_k: int

    @property
    def lower_sound(self) -> bool:
        """The impossibility claim did not overshoot the exact frontier."""
        return self.report.best_lower.k < self.exact_k

    @property
    def upper_sound(self) -> bool:
        """The solvability claim is indeed solvable."""
        return self.exact_k <= self.report.best_upper.k

    @property
    def lower_tight(self) -> bool:
        """The impossibility claim is exactly one below the frontier."""
        return self.report.best_lower.k == self.exact_k - 1

    @property
    def upper_tight(self) -> bool:
        """The solvability claim meets the frontier."""
        return self.report.best_upper.k == self.exact_k

    def describe(self) -> str:
        return (
            f"paper ({self.report.best_lower.k}, {self.report.best_upper.k}]"
            f" vs exact k={self.exact_k}: lower "
            f"{'tight' if self.lower_tight else ('sound' if self.lower_sound else 'UNSOUND')},"
            f" upper {'tight' if self.upper_tight else ('sound' if self.upper_sound else 'UNSOUND')}"
        )


def exact_one_round_frontier(
    model: ClosedAboveModel, max_graphs: int = 1 << 12
) -> int:
    """Smallest ``k`` with one-round ``k``-set agreement solvable — exact.

    Enumerates the full allowed graph set (guarded by ``max_graphs``) and
    sweeps ``k`` upward; ``k = n`` always succeeds (everyone decides their
    own value), so the sweep terminates.
    """
    graphs = sorted(model.iter_graphs(max_graphs=max_graphs))
    for k in range(1, model.n + 1):
        if decide_one_round_solvability(graphs, k).solvable:
            return k
    raise VerificationError(
        "unreachable: n-set agreement is solvable by deciding own input"
    )


def analyze_tightness(
    model: ClosedAboveModel,
    semantics: str = "pointwise",
    max_graphs: int = 1 << 12,
) -> TightnessAnalysis:
    """Run the full comparison for a (small) closed-above model."""
    report = bound_report(sorted(model.generators), semantics=semantics)
    exact = exact_one_round_frontier(model, max_graphs=max_graphs)
    return TightnessAnalysis(report=report, exact_k=exact)
