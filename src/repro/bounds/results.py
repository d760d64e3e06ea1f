"""Bound records with provenance.

Every bound function returns a :class:`Bound` that remembers which theorem
produced it and the combinatorial numbers that witnessed it, so experiment
tables can cite the paper line by line.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum

from .._record import factory, record

__all__ = ["BoundKind", "Bound"]


class BoundKind(Enum):
    """Whether a bound asserts solvability or impossibility."""

    UPPER = "upper"  # k-set agreement IS solvable
    LOWER = "lower"  # k-set agreement is NOT solvable


@record
class Bound:
    """A provenance-carrying bound on k-set agreement.

    For ``kind == UPPER``: ``k``-set agreement is solvable (in ``rounds``
    rounds).  For ``kind == LOWER``: ``k``-set agreement is *not* solvable;
    ``k == 0`` encodes a vacuous lower bound (no impossibility obtained).
    """

    kind: BoundKind
    k: int
    rounds: int
    theorem: str
    oblivious_only: bool = False
    details: Mapping[str, object] = factory(dict)

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be non-negative, got {self.k}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be positive, got {self.rounds}")

    @property
    def vacuous(self) -> bool:
        """True for lower bounds that rule out nothing."""
        return self.kind is BoundKind.LOWER and self.k == 0

    def describe(self) -> str:
        """One-line human-readable summary."""
        scope = " (oblivious algorithms)" if self.oblivious_only else ""
        if self.kind is BoundKind.UPPER:
            return (
                f"{self.k}-set agreement solvable in {self.rounds} round(s) "
                f"[Thm {self.theorem}]{scope}"
            )
        if self.vacuous:
            return f"no impossibility [Thm {self.theorem}]{scope}"
        return (
            f"{self.k}-set agreement impossible in {self.rounds} round(s) "
            f"[Thm {self.theorem}]{scope}"
        )
