"""Upward closures of graphs: the ``↑G`` of closed-above models (Def 2.3).

``↑G`` is the set of graphs on the same processes whose edge set contains
``E(G)``.  A closed-above model is generated by a set ``S`` of graphs and
allows, at every round, any graph in ``⋃_{G∈S} ↑G``.

Enumerating ``↑G`` is exponential in the number of missing edges
(``2**(n(n-1) - |proper edges|)``); :func:`iter_upward_closure` therefore
guards with an explicit budget, and :func:`sample_superset` provides a
randomised alternative for large ``n``.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from itertools import product

from .._bitops import bit, full_mask, iter_supersets
from ..errors import GraphError, ProcessMismatchError
from .digraph import Digraph

__all__ = [
    "in_upward_closure",
    "in_model",
    "iter_upward_closure",
    "iter_model_graphs",
    "upward_closure_size",
    "minimal_generators",
    "sample_superset",
    "missing_edges",
]


def in_upward_closure(candidate: Digraph, generator: Digraph) -> bool:
    """Return True iff ``candidate ∈ ↑generator``."""
    return generator.is_subgraph_of(candidate)


def in_model(candidate: Digraph, generators: Iterable[Digraph]) -> bool:
    """Return True iff ``candidate`` belongs to ``⋃_{G∈S} ↑G``."""
    return any(in_upward_closure(candidate, g) for g in generators)


def missing_edges(g: Digraph) -> list[tuple[int, int]]:
    """Non-loop edges absent from ``g`` (the freedom of ``↑g``)."""
    return [
        (u, v)
        for u in range(g.n)
        for v in range(g.n)
        if u != v and not g.has_edge(u, v)
    ]


def upward_closure_size(g: Digraph) -> int:
    """``|↑g| = 2**#missing_edges`` — often astronomically large."""
    return 1 << (g.n * (g.n - 1) - g.proper_edge_count)


def _check_upset_budget(g: Digraph, max_graphs: int | None) -> None:
    if max_graphs is None:
        return
    size = upward_closure_size(g)
    if size > max_graphs:
        raise GraphError(
            f"↑G has {size} graphs, more than the budget of "
            f"{max_graphs}; use sample_superset or a larger budget"
        )


def _iter_upset_rows(g: Digraph) -> Iterator[tuple[int, ...]]:
    """The out-row tuples of ``↑g``: the product of each row's supersets.

    The last process's row varies fastest, and each row runs through its
    supersets from the full row down to ``g``'s own, so ``↑g`` opens with
    the complete graph and ends with ``g``.  Every tuple already carries
    ``g``'s self-loops, so the graphs are built without the constructor's
    checks (:meth:`Digraph._from_derived_rows`).
    """
    universe = full_mask(g.n)
    return product(*[tuple(iter_supersets(row, universe)) for row in g.out_rows])


def iter_upward_closure(g: Digraph, max_graphs: int | None = 1 << 20) -> Iterator[Digraph]:
    """Enumerate every graph of ``↑g``, from the complete graph down to ``g``.

    Raises :class:`GraphError` if the closure has more than ``max_graphs``
    elements (pass ``None`` to disable the guard).
    """
    _check_upset_budget(g, max_graphs)
    n = g.n
    derived = Digraph._from_derived_rows
    for rows in _iter_upset_rows(g):
        yield derived(n, rows)


def iter_model_graphs(
    generators: Iterable[Digraph], max_graphs: int | None = 1 << 20
) -> Iterator[Digraph]:
    """Enumerate ``⋃_{G∈S} ↑G`` without duplicates.

    Each up-set is walked in :func:`iter_upward_closure` order, generator
    by generator; a graph is built the first time its rows come up and
    skipped after that.  ``max_graphs`` caps the model: a generator whose
    up-set alone exceeds it is refused before its enumeration starts, and
    :class:`GraphError` is raised once the distinct graphs outnumber it.
    """
    seen: set[tuple[int, ...]] = set()
    derived = Digraph._from_derived_rows
    for g in generators:
        _check_upset_budget(g, max_graphs)
        n = g.n
        for rows in _iter_upset_rows(g):
            if rows in seen:
                continue
            if max_graphs is not None and len(seen) == max_graphs:
                raise GraphError(
                    f"the model has more than the budget of {max_graphs} graphs"
                )
            seen.add(rows)
            yield derived(n, rows)


def minimal_generators(graphs: Iterable[Digraph]) -> frozenset[Digraph]:
    """Drop generators that lie in the closure of another generator.

    The closed-above model of ``S`` equals that of its ⊆-minimal elements;
    normalising keeps combinatorial-number computations canonical.  Raises
    :class:`ProcessMismatchError` if the graphs differ in process count.
    """
    graphs = list(set(graphs))
    if not graphs:
        raise GraphError("need at least one generator")
    counts = sorted({g.n for g in graphs})
    if len(counts) > 1:
        raise ProcessMismatchError(
            f"generators over different process counts: {counts}"
        )
    minimal = []
    for g in graphs:
        # A strict subgraph has fewer edges, and the set() above merged
        # equal graphs, so only graphs with fewer edges are tested.
        size = g.edge_count
        if any(h.edge_count < size and h.is_subgraph_of(g) for h in graphs):
            continue
        minimal.append(g)
    return frozenset(minimal)


def sample_superset(g: Digraph, rng: random.Random, edge_probability: float = 0.5) -> Digraph:
    """Sample a uniform-ish element of ``↑g``.

    Each missing edge is added independently with ``edge_probability``;
    ``0.5`` gives the uniform distribution over ``↑g``.
    """
    if not 0.0 <= edge_probability <= 1.0:
        raise GraphError(f"edge_probability must be in [0, 1], got {edge_probability}")
    rows = list(g.out_rows)
    for u, v in missing_edges(g):
        if rng.random() < edge_probability:
            rows[u] |= bit(v)
    return Digraph(g.n, rows)
