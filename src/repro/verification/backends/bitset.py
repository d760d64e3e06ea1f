"""Bitmask re-encoding of the reference CSP search.

Values are small ints, so every set the reference backend manipulates
becomes a plain Python integer treated as a bitmask (:mod:`repro._bitops`
conventions): each view's live domain, each execution's decided-value
set, and the prune trail are ints; propagation is ``&``/``|``; fail-first
selection is a popcount; undo restores a saved mask in one assignment.
The traversal order is identical to the reference backend — ascending
value index at every node, same fail-first tie-breaking — so the two
produce the *same witness*, not merely the same verdict.

The subsumption reduction lives here too, but the backend does not run
it: :func:`reduce_executions` is the helper the CSP builder calls, and
:func:`solve` searches the rows it is given.  The builder
(:func:`~repro.verification.solvability.index_views`) reduces sets of
in-neighbourhoods, before any row exists.  The reduction is an inverted
index — one int bitset of rows per view, so the rows containing a row
are the AND of its views' bitsets, and a row is dropped when that AND
holds any row but itself.  Its cost grows with the rows times their
views, not with the pairs of rows.
"""

from __future__ import annotations

from ..._bitops import mask_of

__all__ = ["reduce_executions", "solve"]


def reduce_executions(
    executions: list[tuple[int, ...]],
) -> list[tuple[int, ...]]:
    """Drop rows strictly contained in another row; keep original order.

    Rows are compared as sets of views, so copies of a row (and rows that
    list the same views in another order) are kept, as equal rows are not
    strict supersets of each other.
    """
    kept = _undominated(executions)
    if kept is None:
        sets = [tuple(sorted(set(row))) for row in executions]
        kept = _undominated(sets)
        return [row for row, views in zip(executions, sets) if kept[views]]
    return [row for row in executions if kept[row]]


def _undominated(
    rows: list[tuple[int, ...]],
) -> dict[tuple[int, ...], bool] | None:
    """Whether each distinct row is not strictly contained in another row.

    Inverted index: one int bitset per view, with bit ``i`` set when the
    ``i``-th distinct row contains the view.  The AND of a row's view
    bitsets is the set of rows that contain it, itself included, so the
    row is dominated exactly when the AND has any other bit.  Bitsets are
    filled in a ``bytearray`` and converted once (linear, where growing
    an int by ``|=`` is quadratic); each row ANDs its rarest views first
    and stops as soon as only its own bit is left.  Returns ``None`` when
    a row is not a strictly increasing tuple, since only then are
    distinct rows distinct sets.
    """
    flags = dict.fromkeys(rows, False)
    size = (len(flags) + 7) >> 3
    postings: dict[int, bytearray] = {}
    for i, row in enumerate(flags):
        byte, bit = i >> 3, 1 << (i & 7)
        previous = -1
        for view in row:
            if view <= previous:
                return None
            previous = view
            posting = postings.get(view)
            if posting is None:
                posting = postings[view] = bytearray(size)
            posting[byte] |= bit
    rows_with = {
        view: int.from_bytes(posting, "little")
        for view, posting in postings.items()
    }
    rarity = {view: holders.bit_count() for view, holders in rows_with.items()}
    everyone = (1 << len(flags)) - 1
    own = 1
    for row in flags:
        common = everyone
        for view in sorted(row, key=rarity.__getitem__):
            common &= rows_with[view]
            if common == own:
                break
        flags[row] = common == own
        own <<= 1
    return flags


def solve(
    executions: list[tuple[int, ...]],
    domains: list[tuple[int, ...]],
    k: int,
) -> tuple[bool, list[int | None], int]:
    """Mask-native forward-checking backtracker over the given rows."""
    nviews = len(domains)
    occurs: list[list[int]] = [[] for _ in range(nviews)]
    for e, exec_views in enumerate(executions):
        for idx in exec_views:
            occurs[idx].append(e)

    # Per-view live domains and per-execution decided sets as masks.
    dom: list[int] = [mask_of(d) for d in domains]
    dec_mask: list[int] = [0] * len(executions)
    dec_count: list[int] = [0] * len(executions)
    assignment: list[int] = [-1] * nviews
    # Prune trail of (view, previous domain mask) whole-mask snapshots,
    # restored LIFO on undo — cheaper than per-value bookkeeping.
    trail: list[tuple[int, int]] = []
    occ_len = [len(o) for o in occurs]

    def backtrack() -> bool:
        # Fail-first: smallest live domain, ties to the most-occurring
        # view — numerically identical to the reference pick_variable.
        best = -1
        best_size = 0
        best_occ = 0
        for idx in range(nviews):
            if assignment[idx] >= 0:
                continue
            size = dom[idx].bit_count()
            occ = occ_len[idx]
            if best < 0 or size < best_size or (
                size == best_size and occ > best_occ
            ):
                best = idx
                best_size = size
                best_occ = occ
        if best < 0:
            return True
        idx = best
        rest = dom[idx]
        while rest:
            vbit = rest & -rest
            rest ^= vbit
            # --- assign(idx, vbit) ---
            mark = len(trail)
            touched: list[int] = []
            assignment[idx] = vbit.bit_length() - 1
            ok = True
            for e in occurs[idx]:
                if dec_mask[e] & vbit:
                    continue
                dec_mask[e] |= vbit
                dec_count[e] += 1
                touched.append(e)
                if dec_count[e] == k:
                    allowed = dec_mask[e]
                    for other in executions[e]:
                        if assignment[other] < 0:
                            narrowed = dom[other] & allowed
                            if narrowed != dom[other]:
                                trail.append((other, dom[other]))
                                dom[other] = narrowed
                                if not narrowed:
                                    ok = False
                                    break
                elif dec_count[e] > k:  # pragma: no cover - pruned earlier
                    ok = False
                if not ok:
                    break
            if ok and backtrack():
                return True
            # --- undo ---
            assignment[idx] = -1
            while len(trail) > mark:
                view, previous = trail.pop()
                dom[view] = previous
            for e in touched:
                dec_mask[e] ^= vbit
                dec_count[e] -= 1
        return False

    solvable = backtrack()
    decoded: list[int | None] = [
        value if value >= 0 else None for value in assignment
    ]
    return solvable, decoded, len(executions)
