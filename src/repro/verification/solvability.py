"""Exact one-round solvability of k-set agreement by oblivious algorithms.

This module decides, by exhaustive constraint search, whether *any*
oblivious decision map solves ``k``-set agreement in one round against an
explicit set of graphs.  It is the ground truth the paper's bounds are
measured against in experiments E5/E10:

* **UNSAT** on a subset of a model's graphs ⟹ impossibility on the model
  (more graphs only constrain further) — certifying lower bounds;
* **SAT** on the *full* allowed graph set ⟹ solvability — certifying that
  an upper bound is not just sufficient but achieved by some map.

Formulation.  A one-round oblivious algorithm is a map ``δ`` from flattened
views (sets of ``(process, value)`` pairs) to values.  With at least two
input values, validity forces ``δ(v)`` to pick a value present in ``v``
(otherwise the adversary completes the execution so that ``δ(v)`` is
nobody's input).  Each execution — a graph ``G`` and an input assignment —
constrains the set ``{δ(view_p)}`` to at most ``k`` distinct values.

The CSP is solved by backtracking with forward checking: once an execution
has ``k`` distinct decided values, the domains of its still-undecided views
are restricted to those values; an emptied domain backtracks immediately.
Variables are chosen fail-first (smallest live domain, then most
constrained).

The search itself runs on the ``bitset`` backend of
:mod:`repro.verification.backends`; this module builds the abstract CSP
(views, executions, value indexing) and decodes the backend's integer
assignment back into a decision map.  An
execution whose views are a strict subset of another's constrains
nothing the other does not, so the builder drops it (the subsumption
reduction) before handing the rows over; see :func:`index_views`.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from itertools import product

from .._record import record
from ..agreement.views import ObliviousView
from ..engine.cache import cached_kernel
from ..engine.canonical import graph_set_key
from ..errors import VerificationError
from ..graphs.digraph import Digraph
from .backends import solve_csp
from .backends.bitset import reduce_executions

__all__ = [
    "SolvabilitySearch",
    "decide_one_round_solvability",
    "SolvabilityResult",
    "index_views",
]


@record
class SolvabilityResult:
    """Verdict of the search, with a witness decision map when solvable."""

    solvable: bool
    k: int
    view_count: int
    execution_count: int
    decision_map: dict[ObliviousView, Hashable] | None
    rounds: int = 1

    def describe(self) -> str:
        verdict = "solvable" if self.solvable else "IMPOSSIBLE"
        word = "round" if self.rounds == 1 else "rounds"
        return (
            f"{self.k}-set agreement ({self.rounds} {word}): {verdict} "
            f"[{self.view_count} views, {self.execution_count} executions]"
        )


def index_views(
    graphs: Sequence[Digraph],
    values: Sequence[Hashable],
    colored: bool = False,
) -> tuple[dict, list[tuple[int, ...]]]:
    """Index the views of every one-round execution of ``graphs``.

    An execution is a graph and an input assignment from
    ``product(values, repeat=n)``; its row is the sorted tuple of the
    indices of its processes' views.  Views are indexed in order of first
    appearance over (graph, assignment, process) and keyed by the
    oblivious view ``frozenset((q, a[q]) for q in In(p))`` — or by
    ``(p, view)`` when ``colored``.  Returns ``(index, rows)``, the rows
    already distinct and undominated: the subsumption reduction is
    decided here, on sets of in-neighbourhoods, before any row exists.

    Subsumption.  A view names the processes it heard, and every process
    hears itself, so an execution's views spell out its assignment and
    its graph's set of in-neighbourhoods ``S(G)``.  One row therefore
    holds another exactly when their assignments are equal and
    ``S(G) ⊆ S(G')``: graphs with equal sets have equal rows, and the
    undominated rows are every assignment of each ⊆-maximal set.  A
    graph's *key* is the set of its in-neighbourhood masks — colored, of
    its ``(p, In(p))`` pairs packed into one int each; those keys never
    nest, as a colored row holds one view per process.  A graph whose
    key was seen adds nothing.  :func:`reduce_executions` keeps the
    maximal keys (as sorted tuples), and each kept key, in order of first
    appearance, gives one row per distinct assignment, in order: the
    order deduplicating and then reducing the (graph, assignment) rows
    would leave.

    Packing: every assignment is one int with one nonzero digit per
    process, the digit of a value being its rank among the distinct
    values (by equality, first occurrence wins, as in a ``frozenset``).
    A process's view is that int masked to the digits of its
    in-neighbours, so view equality is int equality, and the views of one
    in-neighbourhood (a *column*: one view per assignment) never collide
    with another's — their nonzero digits spell it out.  Only a column no
    earlier graph had costs per-view work, and a ``frozenset`` view is
    built once per distinct view, from the assignment it first appears
    in.
    """
    n = graphs[0].n
    digits: dict[Hashable, int] = {}
    for value in values:
        digits.setdefault(value, len(digits) + 1)
    width = len(digits).bit_length()
    field = (1 << width) - 1
    # Packed assignment -> the first assignment that packs to it.
    first: dict[int, tuple] = {}
    for a in product(values, repeat=n):
        first.setdefault(sum(digits[a[q]] << width * q for q in range(n)), a)
    view_index: dict = {}  # frozenset view (colored: (p, view)) -> index
    columns: dict[int, list[int]] = {}  # column -> view index per assignment
    keys: dict[frozenset[int], None] = {}  # graph keys, first appearance
    for g in graphs:
        cols = g.in_rows
        if colored:
            cols = [p << n | mask for p, mask in enumerate(cols)]
        key = frozenset(cols)
        if key in keys:
            continue
        keys[key] = None
        fresh = []  # (p, In(p), its digits, packed view -> index, column)
        for p, col in enumerate(cols):
            if col not in columns:
                heard = g.in_neighbors(p)
                mask = sum(field << width * q for q in heard)
                column = columns[col] = []
                fresh.append((p, heard, mask, {}, column))
        if not fresh:
            continue
        # Index the new columns' views in first-appearance order.
        for code, a in first.items():
            for p, heard, mask, seen, column in fresh:
                view = code & mask
                idx = seen.get(view)
                if idx is None:
                    idx = seen[view] = len(view_index)
                    view = frozenset((q, a[q]) for q in heard)
                    view_index[(p, view) if colored else view] = idx
                column.append(idx)
    rows: list[tuple[int, ...]] = []
    for key in reduce_executions([tuple(sorted(key)) for key in keys]):
        rows.extend(
            map(tuple, map(sorted, zip(*map(columns.__getitem__, key))))
        )
    return view_index, rows


def _domains(views) -> list[tuple]:
    """Each view's distinct values: the decisions validity leaves it.

    Values are ranked by first appearance over the views, a view's own
    values by process, so no two values are compared and they need not
    be sortable.  Each view a builder indexes brings in at most one new
    value, so the rank is the values' order of first occurrence: sorted
    order for ``0..k``.
    """
    rank: dict[Hashable, int] = {}
    held = []
    for view in views:
        present = dict.fromkeys(v for _, v in sorted(view))
        for value in present:
            rank.setdefault(value, len(rank))
        held.append(present)
    return [tuple(sorted(present, key=rank.__getitem__)) for present in held]


def _solve_csp(
    view_index: dict,
    executions: list[tuple[int, ...]],
    k: int,
    domains: list[tuple] | None = None,
    backend: str = "bitset",
) -> SolvabilityResult:
    """Shared CSP core: views, per-execution ≤k-distinct constraints.

    Takes the rows distinct and undominated — the builders own the
    subsumption reduction.  Restricts each view's domain to the values it
    contains (validity) unless explicit ``domains`` are given (the
    colored search keys variables by ``(process, view)`` and supplies
    domains itself), maps values to small ints, and hands the abstract
    CSP to the named compute backend for the search.  Used by the
    one-round and colored searches (the multi-round search is the
    one-round one on ``S^r``).
    """
    views: list[ObliviousView | None] = [None] * len(view_index)
    for view, idx in view_index.items():
        views[idx] = view
    base_domains = _domains(views) if domains is None else domains
    # Index values by first appearance across the domains in view order —
    # deterministic without per-node string formatting, and independent of
    # whether the values themselves are sortable.
    value_index: dict[Hashable, int] = {}
    for domain in base_domains:
        for value in domain:
            if value not in value_index:
                value_index[value] = len(value_index)
    values_by_index = list(value_index)
    int_domains = [
        tuple(sorted(value_index[v] for v in domain)) for domain in base_domains
    ]
    solvable, assignment, reduced_count = solve_csp(
        executions, int_domains, k, backend=backend
    )
    decision_map = None
    if solvable:
        decision_map = {
            view: values_by_index[assignment[idx]]
            for idx, view in enumerate(views)
        }
    return SolvabilityResult(
        solvable=solvable,
        k=k,
        view_count=len(views),
        execution_count=reduced_count,
        decision_map=decision_map,
    )


def _search_inputs(
    graphs: Sequence[Digraph],
    k: int,
    values: Sequence[Hashable] | None,
) -> tuple[tuple[Digraph, ...], tuple[Hashable, ...]]:
    """The checks every solvability search makes on its arguments.

    Returns ``graphs`` and ``values`` as tuples, ``values`` defaulting to
    ``0..k``; raises :class:`VerificationError` on the first bad input.
    """
    graphs = tuple(graphs)
    if not graphs:
        raise VerificationError("need at least one graph")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise VerificationError("graphs must share the process count")
    if k < 1:
        raise VerificationError(f"k must be positive, got {k}")
    values = tuple(range(k + 1)) if values is None else tuple(values)
    if len(values) < 2:
        raise VerificationError(
            "need at least two values (one value makes the task trivial "
            "and breaks the validity-restriction argument)"
        )
    return graphs, values


class SolvabilitySearch:
    """Backtracking + forward-checking CSP search over decision maps."""

    def __init__(
        self,
        graphs: Sequence[Digraph],
        k: int,
        values: Sequence[Hashable],
    ):
        self._graphs, self._values = _search_inputs(graphs, k, values)
        self._k = k
        self._build_csp()

    def _build_csp(self) -> None:
        """Index distinct views and the distinct, undominated rows."""
        self._view_index, self._executions = index_views(
            self._graphs, self._values
        )

    # ------------------------------------------------------------------
    def solve(self, backend: str = "bitset") -> SolvabilityResult:
        """Unmemoized search on ``backend`` (see :func:`solve_csp`)."""
        return _solve_csp(
            self._view_index, self._executions, self._k, backend=backend
        )


def decide_one_round_solvability(
    graphs: Sequence[Digraph],
    k: int,
    values: Sequence[Hashable] | None = None,
) -> SolvabilityResult:
    """Decide one-round oblivious solvability of ``k``-set agreement.

    ``values`` defaults to ``0..k`` (``k + 1`` values), which is sufficient
    to witness impossibility: a violation needs ``k + 1`` distinct decided
    values.  A SAT answer over ``graphs`` that are the *complete* model is
    a genuine algorithm; over a subset it only means "not disproved here".

    Results are memoized per *graph set* (order- and duplicate-insensitive)
    in the kernel cache, and — when the persistent store
    (:mod:`repro.store`) is active — across processes too: the CSP search
    is the single most expensive kernel in the repo, so warm-starting it
    is where the store pays for itself.  The kernel version is pinned
    explicitly (bump it on any change to the search semantics, including
    witness tie-breaking) so cosmetic edits don't cold-start the store.
    Every field of the verdict is a function of the set; the witness
    ``decision_map`` is one valid witness for it, shared across equal
    sets.  Treat the returned result as immutable.
    """
    if values is None:
        values = tuple(range(k + 1))
    return _decide_one_round_solvability(tuple(graphs), k, tuple(values))


# The version banked rows carry: `store vacuum` deletes any other's rows.
@cached_kernel(
    name="one_round_solvability",
    key=lambda graphs, k, values: (graph_set_key(graphs), k, values),
    version="2+bitset",
)
def _decide_one_round_solvability(
    graphs: tuple[Digraph, ...],
    k: int,
    values: tuple[Hashable, ...],
) -> SolvabilityResult:
    return SolvabilitySearch(graphs, k, values).solve()
