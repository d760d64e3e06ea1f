"""Combined bound reports: the solvability interval of a model.

For a generator set and round count, collect every applicable upper and
lower bound, and summarise them as an interval
``(best impossible k, best solvable k]`` together with a tightness flag.
"""

from __future__ import annotations

from collections.abc import Iterable

from .._record import record
from ..errors import GraphError
from ..graphs.digraph import Digraph
from .lower import (
    lower_bound_general,
    lower_bound_general_multi_round,
    lower_bound_simple,
    lower_bound_simple_multi_round,
)
from .results import Bound, BoundKind
from .upper import (
    all_covering_upper_bounds,
    best_upper_bound,
    upper_bound_gamma_eq,
    upper_bound_gamma_eq_multi_round,
    upper_bound_simple,
    upper_bound_simple_multi_round,
)

__all__ = ["BoundReport", "bound_report", "bound_report_many"]


def _dedup(bounds: list[Bound]) -> list[Bound]:
    seen = set()
    result = []
    for b in bounds:
        key = (b.kind, b.k, b.rounds, b.theorem, b.oblivious_only)
        if key not in seen:
            seen.add(key)
            result.append(b)
    return result


@record
class BoundReport:
    """All bounds known for a model at a given round count.

    ``best_upper.k``-set agreement is solvable; ``best_lower.k``-set
    agreement is not (when non-vacuous).  ``tight`` means the interval has
    collapsed: ``best_upper.k == best_lower.k + 1``.
    """

    n: int
    rounds: int
    generator_count: int
    upper_bounds: tuple[Bound, ...]
    lower_bounds: tuple[Bound, ...]

    @property
    def best_upper(self) -> Bound:
        """The smallest certified solvable ``k``."""
        return min(self.upper_bounds, key=lambda b: b.k)

    @property
    def best_lower(self) -> Bound:
        """The largest certified impossible ``k`` (possibly vacuous)."""
        return max(self.lower_bounds, key=lambda b: b.k)

    @property
    def consistent(self) -> bool:
        """True when no lower bound contradicts a verified upper bound.

        The paper's Thm 5.4 formula *can* overclaim on some simple models
        built from graph powers (see EXPERIMENTS.md, erratum for ↑C6²):
        its ``t + M_t - 2`` term may assert impossibility below ``γ(G)``
        although Thm 3.2's algorithm demonstrably solves ``γ(G)``-set
        agreement.  We surface that as ``consistent = False`` instead of
        silently reporting a "tight" collapse.
        """
        return self.best_lower.k < self.best_upper.k

    @property
    def tight(self) -> bool:
        """True when upper and lower bounds meet consistently."""
        return self.consistent and self.best_upper.k == self.best_lower.k + 1

    def describe(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"model: n={self.n}, {self.generator_count} generator(s), "
            f"{self.rounds} round(s)"
        ]
        for b in sorted(self.upper_bounds, key=lambda b: (b.k, b.theorem)):
            lines.append(f"  [upper] {b.describe()}")
        for b in sorted(self.lower_bounds, key=lambda b: (-b.k, b.theorem)):
            lines.append(f"  [lower] {b.describe()}")
        if not self.consistent:
            status = "INCONSISTENT (lower bound overclaims; see erratum)"
        elif self.tight:
            status = "TIGHT"
        else:
            status = "gap"
        lines.append(
            f"  => solvable at k={self.best_upper.k}, impossible at "
            f"k={self.best_lower.k} ({status})"
        )
        return "\n".join(lines)


def bound_report(
    generators: Iterable[Digraph],
    rounds: int = 1,
    semantics: str = "pointwise",
) -> BoundReport:
    """Collect every applicable paper bound for the model of ``generators``."""
    generators = tuple(generators)
    if not generators:
        raise GraphError("need at least one generator")
    n = generators[0].n
    uppers: list[Bound] = []
    lowers: list[Bound] = []
    if rounds == 1:
        if len(generators) == 1:
            uppers.append(upper_bound_simple(generators[0]))
            lowers.append(lower_bound_simple(generators[0]))
        uppers.append(upper_bound_gamma_eq(generators))
        uppers.extend(all_covering_upper_bounds(generators))
        lowers.append(lower_bound_general(generators, semantics))
    else:
        if len(generators) == 1:
            uppers.append(upper_bound_simple_multi_round(generators[0], rounds))
            lowers.append(
                lower_bound_simple_multi_round(generators[0], rounds)
            )
        uppers.append(upper_bound_gamma_eq_multi_round(generators, rounds))
        uppers.append(best_upper_bound(generators, rounds))
        lowers.append(
            lower_bound_general_multi_round(generators, rounds, semantics)
        )
    # Deduplicate identical records (Bound.details is a dict, so dedup by
    # the provenance key rather than by hashing).
    uppers = _dedup(uppers)
    lowers = _dedup(lowers)
    return BoundReport(
        n=n,
        rounds=rounds,
        generator_count=len(generators),
        upper_bounds=tuple(uppers),
        lower_bounds=tuple(lowers),
    )


def bound_report_many(
    models: Iterable[Iterable[Digraph]],
    rounds: int = 1,
    semantics: str = "pointwise",
    jobs: int = 1,
) -> list[BoundReport]:
    """Batch :func:`bound_report` over many models, optionally in parallel.

    ``models`` is an iterable of generator sets; reports come back in the
    same order.  ``jobs`` is the worker-process count handed to
    :func:`repro.engine.batch.run_batch` — ``jobs=1`` is the serial
    reference path, and any value produces identical reports.  Kernel
    results memoized while one model is processed are reused by every
    later model that shares graphs (within a worker), which is the
    common case for sweeps over overlapping families.
    """
    # Imported here so that importing the bounds loads no batch driver.
    from ..engine.batch import Job, run_batch

    prepared = [tuple(generators) for generators in models]
    tasks = [
        Job(
            name=f"bound_report[{index}]",
            fn=bound_report,
            args=(generators,),
            kwargs={"rounds": rounds, "semantics": semantics},
        )
        for index, generators in enumerate(prepared)
    ]
    return list(run_batch(tasks, jobs=jobs).values)
