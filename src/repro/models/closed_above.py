"""Closed-above communication models (Def 2.3) and symmetric models (Def 2.4).

A closed-above model is generated by a set ``S`` of graphs; the allowed
graphs are ``⋃_{G∈S} ↑G``.  Membership is a cheap subgraph test; enumeration
of the allowed set is exponential and guarded.  Symmetric models are built by
closing the generator set under process permutations.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator

from ..errors import ModelError
from ..graphs.closure import (
    in_model,
    iter_model_graphs,
    minimal_generators,
    sample_superset,
)
from ..graphs.digraph import Digraph
from ..graphs.symmetry import symmetric_closure
from .communication import ObliviousModel

__all__ = ["ClosedAboveModel", "simple_closed_above", "symmetric_closed_above"]


class ClosedAboveModel(ObliviousModel):
    """The oblivious model ``(⋃_{G∈S} ↑G)^ω`` (Def 2.3).

    Parameters
    ----------
    generators:
        The generating graphs ``S``.  They are normalised to their
        ⊆-minimal subset (which generates the same model).

    Examples
    --------
    >>> from repro.graphs import star
    >>> m = ClosedAboveModel([star(3, 0)])
    >>> m.is_simple
    True
    """

    def __init__(self, generators: Iterable[Digraph]):
        generators = minimal_generators(generators)
        super().__init__(next(iter(generators)).n)
        self._generators = generators
        self._ordered = sorted(generators)

    @property
    def generators(self) -> frozenset[Digraph]:
        """The (minimal) generating graphs ``S``."""
        return self._generators

    @property
    def is_simple(self) -> bool:
        """True for simple closed-above models (single generator)."""
        return len(self._generators) == 1

    @property
    def generator(self) -> Digraph:
        """The unique generator of a simple model."""
        if not self.is_simple:
            raise ModelError("model has several generators; use .generators")
        return self._ordered[0]

    def is_symmetric(self) -> bool:
        """True iff the generator set is closed under permutations (Def 2.4)."""
        return self._generators == symmetric_closure(self._generators)

    def symmetrized(self) -> "ClosedAboveModel":
        """The symmetric model generated by ``Sym(S)``."""
        return ClosedAboveModel(symmetric_closure(self._generators))

    # ------------------------------------------------------------------
    def allows_graph(self, graph: Digraph) -> bool:
        if graph.n != self.n:
            return False
        return in_model(graph, self._ordered)

    def sample_graph(self, rng: random.Random) -> Digraph:
        generator = rng.choice(self._ordered)
        return sample_superset(generator, rng)

    def sample_minimal_graph(self, rng: random.Random) -> Digraph:
        """Draw a generator itself — the adversary's stingiest choice."""
        return rng.choice(self._ordered)

    def iter_graphs(self, max_graphs: int | None = 1 << 20) -> Iterator[Digraph]:
        """Enumerate every allowed graph (exponential; guarded).

        ``max_graphs`` caps the whole model, not each generator's up-set
        (see :func:`~repro.graphs.closure.iter_model_graphs`).
        """
        return iter_model_graphs(self._ordered, max_graphs=max_graphs)

    def iter_generators(self) -> Iterator[Digraph]:
        """Deterministic iteration over the generators."""
        return iter(self._ordered)

    def __repr__(self) -> str:
        kind = "simple, " if self.is_simple else ""
        return (
            f"ClosedAboveModel({kind}n={self.n}, "
            f"generators={len(self._generators)})"
        )


def simple_closed_above(generator: Digraph) -> ClosedAboveModel:
    """The simple closed-above model ``(↑G)^ω``."""
    return ClosedAboveModel([generator])


def symmetric_closed_above(generators: Iterable[Digraph]) -> ClosedAboveModel:
    """The symmetric closed-above model generated by ``Sym(S)`` (Def 2.4)."""
    return ClosedAboveModel(symmetric_closure(generators))
