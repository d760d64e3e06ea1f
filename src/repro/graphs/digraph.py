"""Immutable directed communication graphs.

A :class:`Digraph` is the paper's communication graph (Sec 2.1): nodes are the
processes ``0 .. n-1`` and an edge ``(u, v)`` means that, at the round the
graph describes, a message sent by ``u`` is delivered to ``v``.

Following the paper, **every graph carries all self-loops**: a process always
hears from itself ("Note that the outgoing neighbors of a set S contains S --
that is, we assume self-loop", Def 3.1, and the product of Def 6.1 requires
auto-loops).  The constructor silently adds them so that all graph families,
random generators and operations stay inside the paper's graph universe.

Adjacency is stored as a tuple of integer bitmasks, one *out-row* per process:
bit ``v`` of ``out[u]`` is set iff ``(u, v)`` is an edge.  This makes the
combinatorial numbers of the paper (domination, covering, ...) reduce to
popcounts over subset enumerations.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property
from operator import getitem, index

from .._bitops import (
    bit,
    bits_tuple,
    full_mask,
    is_subset,
    iter_bits,
    mask_of,
    popcount,
)
from ..errors import GraphError, ProcessMismatchError

__all__ = ["Digraph"]

#: ``n -> table`` for the in-rows of graphs on ``n <= 8`` processes: byte
#: ``v`` of ``table[u][row]`` is ``1 << u`` for each ``v`` in ``row`` and 0
#: otherwise.  Built on first use for each ``n``.
_IN_TABLES: dict[int, tuple[tuple[int, ...], ...]] = {}


def _in_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The transposition table of ``n <= 8`` processes (see ``_IN_TABLES``)."""
    spread = [0] * (1 << n)  # spread[row]: byte v is 1 for each v in row
    for row in range(1, 1 << n):
        low = row & -row
        spread[row] = spread[row ^ low] | 1 << 8 * (low.bit_length() - 1)
    table = _IN_TABLES[n] = tuple(
        tuple([s << u for s in spread]) for u in range(n)
    )
    return table


class Digraph:
    """An immutable directed graph over processes ``0 .. n-1`` with self-loops.

    Parameters
    ----------
    n:
        Number of processes; must be positive.
    out_rows:
        Iterable of ``n`` bitmasks; row ``u`` holds the out-neighbours of
        ``u``.  Self-loops are added automatically.  Alternatively use
        :meth:`from_edges`.

    Examples
    --------
    >>> g = Digraph.from_edges(3, [(0, 1), (1, 2)])
    >>> sorted(g.edges())
    [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]
    >>> g.out_mask(0)
    3
    """

    __slots__ = ("_n", "_out", "_in", "_hash", "__dict__")

    def __init__(self, n: int, out_rows: Iterable[int]):
        if n <= 0:
            raise GraphError(f"a graph needs at least one process, got n={n}")
        rows = tuple(out_rows)
        if len(rows) != n:
            raise GraphError(f"expected {n} out-rows, got {len(rows)}")
        universe = (1 << n) - 1
        looped = True
        for u, row in enumerate(rows):
            if row < 0 or row > universe:
                raise GraphError(
                    f"out-row of process {u} ({row:#x}) leaves the universe of {n} processes"
                )
            if not row >> u & 1:
                looped = False
        # Rows that carry their self-loops are kept as the caller's tuple.
        # ``True`` carries row 0's loop but is re-made as an int: a bool
        # row would change the graph's store fingerprint.
        if not looped or rows[0] is True:
            rows = tuple([row | 1 << u for u, row in enumerate(rows)])
        self._n = n
        self._out = rows
        self._in = None
        self._hash = hash((n, rows))

    @classmethod
    def _from_derived_rows(cls, n: int, rows: tuple[int, ...]) -> "Digraph":
        """The graph of ``rows``, derived from an already valid graph's.

        ``rows`` must be what :meth:`__init__` keeps as given: a tuple of
        ``n`` ints, each inside the universe and carrying its process's
        self-loop.  Nothing is checked; the result is the graph
        ``Digraph(n, rows)`` builds, with the same hash and pickle.
        """
        g = object.__new__(cls)
        g._n = n
        g._out = rows
        g._in = None
        g._hash = hash((n, rows))
        return g

    def __getstate__(self) -> tuple:
        # The in-rows stay out of a pickle.  That keeps the form pickles
        # had when the in-rows were cached in the instance dict, so stores
        # and wire frames written here still load in that code.
        return self.__dict__ or None, {
            "_n": self._n, "_out": self._out, "_hash": self._hash
        }

    def __setstate__(self, state: tuple) -> None:
        # ``(__dict__ or None, slots)``.  Older pickles kept the in-rows in
        # the dict half or left them out, so the slot starts empty and
        # takes them from whichever half names them.
        cached, slots = state
        self._in = None
        for name, value in {**(cached or {}), **slots}.items():
            setattr(self, name, value)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Digraph":
        """Build a graph from an edge list (self-loops added automatically)."""
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u] |= bit(v)
        return cls(n, rows)

    @classmethod
    def empty(cls, n: int) -> "Digraph":
        """The graph with only self-loops (no process hears anyone else)."""
        return cls(n, [0] * n)

    @classmethod
    def complete(cls, n: int) -> "Digraph":
        """The clique: every process hears every process."""
        universe = full_mask(n)
        return cls(n, [universe] * n)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of processes."""
        return self._n

    @property
    def out_rows(self) -> tuple[int, ...]:
        """Out-neighbour bitmask of each process (row ``u`` = ``Out(u)``)."""
        return self._out

    def processes(self) -> range:
        """Iterate over process ids."""
        return range(self._n)

    def out_mask(self, u: int) -> int:
        """Bitmask of ``Out(u)``: processes that hear ``u`` (incl. ``u``)."""
        return self._out[u]

    @property
    def in_rows(self) -> tuple[int, ...]:
        """In-neighbour bitmask of each process (row ``v`` = ``In(v)``).

        Transposed from the out-rows on first read and kept in a slot.  On
        at most 8 processes, a byte's worth, each in-row is one byte of a
        sum of ``_IN_TABLES[n]`` entries, one per out-row (no two processes
        share a bit, so the sum is exact); past 8 a loop moves the bits one
        by one.
        """
        rows = self._in
        if rows is None:
            n = self._n
            if n <= 8:
                table = _IN_TABLES.get(n) or _in_table(n)
                packed = sum(map(getitem, table, self._out))
                rows = packed.to_bytes(n, "little")
            else:
                rows = [0] * n
                for u, out in enumerate(self._out):
                    here = 1 << u
                    while out:
                        low = out & -out
                        rows[low.bit_length() - 1] |= here
                        out ^= low
            rows = self._in = tuple(rows)
        return rows

    def in_mask(self, v: int) -> int:
        """Bitmask of ``In(v)``: processes ``v`` hears from (incl. ``v``)."""
        return self.in_rows[v]

    def out_neighbors(self, u: int) -> tuple[int, ...]:
        """Sorted tuple of processes hearing ``u``."""
        return bits_tuple(self._out[u])

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted tuple of processes heard by ``v``."""
        return bits_tuple(self.in_rows[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Return True iff ``(u, v)`` is an edge (messages from u reach v)."""
        return bool(self._out[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all edges, self-loops included."""
        for u, row in enumerate(self._out):
            for v in iter_bits(row):
                yield (u, v)

    def proper_edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over non-loop edges."""
        for u, v in self.edges():
            if u != v:
                yield (u, v)

    @cached_property
    def edge_count(self) -> int:
        """Total number of edges, self-loops included."""
        return sum(popcount(row) for row in self._out)

    @property
    def proper_edge_count(self) -> int:
        """Number of non-loop edges."""
        return self.edge_count - self._n

    # ------------------------------------------------------------------
    # Set-wise neighbourhoods (the primitives behind all paper numbers)
    # ------------------------------------------------------------------
    def out_of_set(self, members: int) -> int:
        """Bitmask of processes hearing at least one member of ``members``.

        This is the paper's ``Out_G(P)`` — it always contains ``P`` itself
        because of self-loops.
        """
        heard = 0
        for u in iter_bits(members):
            heard |= self._out[u]
        return heard

    def dominates(self, members: int) -> bool:
        """Return True iff the process set ``members`` dominates the graph."""
        return self.out_of_set(members) == full_mask(self._n)

    # ------------------------------------------------------------------
    # Structural relations
    # ------------------------------------------------------------------
    def is_subgraph_of(self, other: "Digraph") -> bool:
        """Return True iff this graph's edges are all edges of ``other``."""
        self._check_same_processes(other)
        return all(is_subset(a, b) for a, b in zip(self._out, other._out))

    def contains(self, other: "Digraph") -> bool:
        """Return True iff ``other`` is a subgraph of this graph."""
        return other.is_subgraph_of(self)

    def _check_same_processes(self, other: "Digraph") -> None:
        if self._n != other._n:
            raise ProcessMismatchError(
                f"graphs over different process counts: {self._n} vs {other._n}"
            )

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def with_edges(self, edges: Iterable[tuple[int, int]]) -> "Digraph":
        """Return a copy with the given extra edges."""
        rows = list(self._out)
        for u, v in edges:
            if not (0 <= u < self._n and 0 <= v < self._n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={self._n}")
            rows[u] |= bit(v)
        return Digraph(self._n, rows)

    def without_edges(self, edges: Iterable[tuple[int, int]]) -> "Digraph":
        """Return a copy lacking the given edges (self-loops are kept)."""
        rows = list(self._out)
        for u, v in edges:
            if u == v:
                continue  # self-loops are part of the model and cannot go
            rows[u] &= ~bit(v)
        return Digraph(self._n, rows)

    def reverse(self) -> "Digraph":
        """Return the graph with every edge reversed."""
        return Digraph._from_derived_rows(self._n, self.in_rows)

    def permute(self, perm: Iterable[int]) -> "Digraph":
        """Relabel processes: ``perm[i]`` is the new name of process ``i``.

        This realises the paper's symmetric-model permutations (Def 2.4):
        ``(u, v)`` is an edge of the result iff ``(perm^-1(u), perm^-1(v))``
        is an edge of ``self``.
        """
        p = tuple(perm)
        try:
            # Sorting by operator.index rejects float and string labels.
            valid = sorted(p, key=index) == list(range(self._n))
        except TypeError:
            valid = False
        if not valid:
            raise GraphError(f"{p!r} is not a permutation of 0..{self._n - 1}")
        rows = [0] * self._n
        for u, row in enumerate(self._out):
            new_row = 0
            for v in iter_bits(row):
                new_row |= bit(p[v])
            rows[p[u]] = new_row
        return Digraph._from_derived_rows(self._n, tuple(rows))

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self._n == other._n and self._out == other._out

    def __lt__(self, other: "Digraph") -> bool:
        """Arbitrary-but-stable total order, used for canonical sorting."""
        if not isinstance(other, Digraph):
            return NotImplemented
        return (self._n, self._out) < (other._n, other._out)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        edges = sorted(self.proper_edges())
        return f"Digraph(n={self._n}, edges={edges})"

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export as a :class:`networkx.DiGraph` (self-loops included)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self.processes())
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, g) -> "Digraph":
        """Import from a networkx digraph with integer nodes ``0..n-1``."""
        n = g.number_of_nodes()
        if sorted(g.nodes()) != list(range(n)):
            raise GraphError("networkx graph nodes must be exactly 0..n-1")
        return cls.from_edges(n, g.edges())
