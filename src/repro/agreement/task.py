"""The k-set agreement task [Chaudhuri 93].

Every process starts with an input value and must decide a value such that

* **validity** — every decided value is some process's input;
* **k-agreement** — at most ``k`` distinct values are decided;
* **termination** — every process decides (our round-based executions
  always run to the decision round, so this is structural here).

``1``-set agreement is consensus.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence

from .._record import record
from ..errors import AlgorithmError

__all__ = ["KSetAgreement", "AgreementOutcome"]


@record
class AgreementOutcome:
    """Verdict of checking one execution's decisions against the task."""

    valid: bool
    agreement: bool
    decided_values: frozenset
    distinct_count: int

    @property
    def ok(self) -> bool:
        """True iff both validity and agreement hold."""
        return self.valid and self.agreement


class KSetAgreement:
    """The ``k``-set agreement task over a totally ordered value domain.

    Parameters
    ----------
    k:
        Maximum number of distinct decided values (``k >= 1``).
    values:
        The input domain.  The paper's algorithms pick minima, so a total
        order is required; any sortable hashables work.
    """

    def __init__(self, k: int, values: Sequence[Hashable]):
        if k < 1:
            raise AlgorithmError(f"k must be at least 1, got {k}")
        values = tuple(values)
        if len(set(values)) != len(values):
            raise AlgorithmError("input domain has duplicate values")
        if not values:
            raise AlgorithmError("input domain is empty")
        self._k = k
        self._values = tuple(sorted(values))

    @property
    def k(self) -> int:
        """The agreement parameter."""
        return self._k

    @property
    def values(self) -> tuple:
        """The (sorted) input domain."""
        return self._values

    def check(
        self,
        inputs: Mapping[int, Hashable],
        decisions: Mapping[int, Hashable],
    ) -> AgreementOutcome:
        """Check one execution's decisions.

        ``inputs`` and ``decisions`` map process ids to values; every process
        that appears in ``inputs`` must have decided.
        """
        if set(decisions) != set(inputs):
            raise AlgorithmError(
                "decisions must cover exactly the processes that got inputs"
            )
        input_values = frozenset(inputs.values())
        decided = frozenset(decisions.values())
        valid = decided <= input_values
        agreement = len(decided) <= self._k
        return AgreementOutcome(
            valid=valid,
            agreement=agreement,
            decided_values=decided,
            distinct_count=len(decided),
        )

    def interesting_inputs(self, n: int) -> bool:
        """True iff the domain can exhibit a violation at all.

        With fewer than ``k + 1`` distinct values (or fewer processes than
        ``k + 1``) every execution trivially satisfies ``k``-agreement.
        """
        return len(self._values) > self._k and n > self._k

    def __repr__(self) -> str:
        return f"KSetAgreement(k={self._k}, |values|={len(self._values)})"
