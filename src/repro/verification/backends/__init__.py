"""Pluggable compute backends for the solvability CSP kernels.

Every solvability search in :mod:`repro.verification` (one-round,
multi-round, colored) bottoms out in the same abstract problem: given
execution rows over view indices and a per-view domain of candidate
values, is there an assignment in which every execution decides at most
``k`` distinct values?  This package isolates that question behind one
interface so the hot kernel can be swapped without touching the
search-construction layers above it:

``reference``
    The original pure-Python search over ``set`` objects, kept verbatim
    as the semantics oracle every other backend is cross-checked against.
``bitset``
    The same search re-encoded over integer bitmasks — domains, decided
    sets and the prune trail are plain ints, so propagation is bitwise
    AND/OR and fail-first selection is a popcount.  Same traversal order
    as ``reference``, an order of magnitude less interpreter work.
``sat``
    A CNF encoding (selector var per (view, value), sequential-counter
    cardinality per execution) handed to `python-sat` when importable.
    Useful on instances whose backtracking tree blows up; optional
    because the dependency is not in the runtime requirements.

Backend contract: ``solve(executions, domains, k)`` where ``executions``
are tuples of view indices, already distinct and subsumption-reduced
(no row a strict subset of another: the CSP builders own that
reduction), and ``domains`` are sorted tuples of *small value indices*
(the caller maps real values to ints and back).  Returns ``(solvable,
assignment, reduced_count)`` with ``assignment`` a per-view value index
(or None) and ``reduced_count`` the number of rows the search kept:
``len(executions)``.  Only ``reference`` still scans for dominated rows,
as the oracle; under ``check`` its count then differs from the others'
whenever a builder handed over a dominated row.

Every memoized search runs on ``bitset``.  ``reference`` and ``sat``
are test oracles, reached by name only through :func:`solve_csp` and
:meth:`~repro.verification.solvability.SolvabilitySearch.solve`, which
bypass the memo and the store.  The pseudo-backend ``check`` runs every
available backend and asserts identical verdicts — the tests use it to
keep the implementations pinned together.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence

from ...errors import VerificationError

__all__ = [
    "BACKEND_NAMES",
    "available_backends",
    "sat_available",
    "solve_csp",
    "witness_ok",
]

#: Concrete single-implementation backends.
BACKEND_NAMES = ("reference", "bitset", "sat")

_SAT_AVAILABLE: bool | None = None


def sat_available() -> bool:
    """True when `python-sat` is importable (checked once per process)."""
    global _SAT_AVAILABLE
    if _SAT_AVAILABLE is None:
        try:
            from pysat.solvers import Solver  # noqa: F401
        except ImportError:
            _SAT_AVAILABLE = False
        else:
            _SAT_AVAILABLE = True
    return _SAT_AVAILABLE


def available_backends() -> tuple[str, ...]:
    """The concrete backends usable in this process."""
    names = ("reference", "bitset")
    return names + ("sat",) if sat_available() else names


def _solver(name: str):
    if name == "reference":
        from . import reference

        return reference.solve
    if name == "bitset":
        from . import bitset

        return bitset.solve
    if name == "sat":
        if not sat_available():
            raise VerificationError(
                "CSP backend 'sat' requires python-sat "
                "(pip install python-sat); use backend='bitset' or "
                "'reference' instead"
            )
        from . import sat

        return sat.solve
    choices = ", ".join(("check",) + BACKEND_NAMES)
    raise VerificationError(
        f"unknown CSP backend {name!r} (choose from: {choices})"
    )


def witness_ok(
    executions: Sequence[tuple[int, ...]],
    domains: Sequence[tuple[int, ...]],
    assignment: Sequence[int | None],
    k: int,
) -> bool:
    """Validate a witness against the constraint rows the backends got.

    Every view must be assigned a value from its own domain (validity)
    and every execution must decide at most ``k`` distinct values.  The
    rows are reduced, which loses nothing: a dropped row is a subset of
    a kept one, so it decides no more values than that row.
    """
    for idx, domain in enumerate(domains):
        if assignment[idx] is None or assignment[idx] not in domain:
            return False
    for row in executions:
        if len({assignment[idx] for idx in row}) > k:
            return False
    return True


def solve_csp(
    executions: list[tuple[int, ...]],
    domains: list[tuple[int, ...]],
    k: int,
    backend: str = "bitset",
) -> tuple[bool, list[int | None], int]:
    """Dispatch the abstract CSP to the backend named ``backend``.

    With ``backend='check'`` every available backend is run and their
    verdicts (solvable, reduced row count) must agree, each SAT witness
    must validate — the reference answer is returned.
    """
    # The backtracking searches recurse once per assigned view; pure
    # Python frames, which CPython 3.11+ runs without growing the C
    # stack.  Raise the limit so a search over many views cannot hit it.
    depth = len(domains) + 1000
    if sys.getrecursionlimit() < depth:
        sys.setrecursionlimit(depth)
    if backend != "check":
        return _solver(backend)(executions, domains, k)

    results = {
        candidate: _solver(candidate)(executions, domains, k)
        for candidate in available_backends()
    }
    reference = results["reference"]
    for candidate, (solvable, assignment, reduced) in results.items():
        if solvable != reference[0]:
            raise VerificationError(
                f"backend cross-check failed: {candidate} says "
                f"solvable={solvable}, reference says {reference[0]}"
            )
        if reduced != reference[2]:
            raise VerificationError(
                f"backend cross-check failed: {candidate} kept {reduced} "
                f"executions after reduction, reference kept {reference[2]}"
            )
        if solvable and not witness_ok(executions, domains, assignment, k):
            raise VerificationError(
                f"backend cross-check failed: {candidate} produced an "
                f"invalid witness for k={k}"
            )
    return reference
