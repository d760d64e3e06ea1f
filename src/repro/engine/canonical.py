"""Canonical cache keys and interning for communication graphs.

Two key flavours, matching how the kernels use graphs:

* :func:`adjacency_key` — the exact ``(n, out_rows)`` identity of a graph.
  Cheap, always correct; the default key for kernels whose result depends
  on the concrete labelling (minimum dominating *sets*, eccentricities).
* :func:`iso_key` — an isomorphism-invariant key: the lexicographically
  least adjacency key over all ``n!`` relabellings.  Correct only for
  label-invariant kernels (domination/covering *numbers*, diameters,
  Betti numbers of label-symmetric constructions).  Computing it is
  ``O(n! · n)``, which beats the kernels it deduplicates for small ``n``
  — exactly the symmetric families, whose orbits put up to ``n!``
  relabellings of one graph through every kernel — and loses above that,
  so graphs with ``n > ISO_KEY_MAX_N`` silently fall back to the exact
  adjacency key.

:func:`intern_graph` maps structurally equal graphs to one shared object
so orbit-heavy workloads hold one copy per distinct graph and identity
checks (`is`) can replace structural comparisons in hot paths.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import permutations

from ..graphs.digraph import Digraph
from .cache import cached_kernel

__all__ = [
    "ISO_KEY_MAX_N",
    "adjacency_key",
    "iso_key",
    "graph_set_key",
    "intern_graph",
]

#: Largest process count for which :func:`iso_key` canonicalises; beyond
#: this the ``n!`` sweep costs more than the kernels it would deduplicate.
ISO_KEY_MAX_N = 7

GraphKey = tuple[int, tuple[int, ...]]


def adjacency_key(g: Digraph) -> GraphKey:
    """Exact structural key: ``(n, out_rows)``."""
    return (g.n, g.out_rows)


@cached_kernel(name="iso_key", key=adjacency_key)
def iso_key(g: Digraph) -> GraphKey:
    """Isomorphism-invariant key (exact adjacency key when ``n`` is large).

    For ``n <= ISO_KEY_MAX_N`` this is the minimum of
    :func:`adjacency_key` over the relabelling orbit, i.e. the key of
    ``repro.graphs.symmetry.canonical_form(g)`` — two small graphs share
    an iso key iff they are isomorphic.
    """
    n = g.n
    if n > ISO_KEY_MAX_N:
        return adjacency_key(g)
    rows = g.out_rows
    best: tuple[int, ...] | None = None
    for perm in permutations(range(n)):
        relabelled = [0] * n
        for u, row in enumerate(rows):
            new_row = 0
            while row:
                low = row & -row
                new_row |= 1 << perm[low.bit_length() - 1]
                row ^= low
            relabelled[perm[u]] = new_row
        candidate = tuple(relabelled)
        if best is None or candidate < best:
            best = candidate
    assert best is not None
    return (n, best)


def graph_set_key(graphs: Iterable[Digraph]) -> tuple[GraphKey, ...]:
    """Order- and multiplicity-insensitive key for a set of graphs: the
    sorted distinct :func:`adjacency_key` of its members."""
    # Deduplicated by a dict, not a set, to keep the members' order: an
    # enumerated model comes in long descending runs, which sorted()
    # merges in far fewer comparisons than it needs for a set's order.
    return tuple(sorted({(g.n, g.out_rows): None for g in graphs}))


_INTERNED: dict[GraphKey, Digraph] = {}
_INTERN_LIMIT = 1 << 14


def intern_graph(g: Digraph) -> Digraph:
    """Return the canonical shared instance for graphs equal to ``g``."""
    key = adjacency_key(g)
    interned = _INTERNED.get(key)
    if interned is None:
        if len(_INTERNED) >= _INTERN_LIMIT:
            # Wholesale reset: interning is an optimisation, not identity
            # semantics, and tracking LRU order here would cost more than
            # re-interning the few thousand live graphs ever does.
            _INTERNED.clear()
        _INTERNED[key] = interned = g
    return interned
