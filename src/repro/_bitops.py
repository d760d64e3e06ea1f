"""Bit-set utilities used throughout the library.

Processes are numbered ``0 .. n-1`` and sets of processes are represented as
Python integers interpreted as bitmasks: bit ``i`` is set iff process ``i``
belongs to the set.  Python's arbitrary-precision integers make this exact for
any ``n``, and popcount / subset iteration compile down to fast C loops.

All public graph and combinatorics code accepts and returns ordinary
``frozenset``/``tuple`` views where convenient, but the inner loops work on
masks produced by the helpers in this module.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

__all__ = [
    "bit",
    "mask_of",
    "full_mask",
    "popcount",
    "iter_bits",
    "bits_tuple",
    "iter_subsets",
    "iter_subsets_of_size",
    "iter_supersets",
    "lowest_bit",
    "is_subset",
]


def bit(i: int) -> int:
    """Return the mask containing only element ``i``."""
    if i < 0:
        raise ValueError(f"bit index must be non-negative, got {i}")
    return 1 << i


def mask_of(elements: Iterable[int]) -> int:
    """Return the mask of an iterable of element indices."""
    mask = 0
    for element in elements:
        if element < 0:
            raise ValueError(f"element must be non-negative, got {element}")
        mask |= 1 << element
    return mask


def full_mask(n: int) -> int:
    """Return the mask of the full set ``{0, ..., n-1}``."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return (1 << n) - 1


def popcount(mask: int) -> int:
    """Return the number of elements in ``mask``."""
    return mask.bit_count()


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the element indices present in ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_tuple(mask: int) -> tuple[int, ...]:
    """Return the elements of ``mask`` as a sorted tuple."""
    elements = []
    while mask:
        low = mask & -mask
        elements.append(low.bit_length() - 1)
        mask ^= low
    return tuple(elements)


def lowest_bit(mask: int) -> int:
    """Return the index of the lowest set bit of a non-empty mask."""
    if mask == 0:
        raise ValueError("mask is empty")
    return (mask & -mask).bit_length() - 1


def is_subset(a: int, b: int) -> bool:
    """Return True iff mask ``a`` is a subset of mask ``b``."""
    return a & ~b == 0


def iter_subsets(mask: int) -> Iterator[int]:
    """Yield every subset of ``mask``, including ``0`` and ``mask`` itself.

    Uses the standard descending subset-enumeration trick; subsets are yielded
    in decreasing numeric order starting from ``mask``.  Mask-native: the
    loop allocates nothing beyond the yielded integers.
    """
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def iter_subsets_of_size(mask: int, size: int) -> Iterator[int]:
    """Yield every subset of ``mask`` containing exactly ``size`` elements.

    This runs in the innermost loop of every covering/domination number,
    so both paths avoid per-subset element tuples:

    * contiguous masks (``{0..k-1}``, i.e. every ``full_mask(n)`` universe
      — the overwhelmingly common call) use Gosper's hack, pure integer
      arithmetic yielding subsets in increasing numeric order;
    * sparse masks precompute the single-bit masks once and fold each
      combination with ``|``, skipping the index→mask translation that
      :func:`mask_of` would redo per subset.

    The enumeration order is unspecified beyond being deterministic per
    mask; callers needing a canonical order sort the (small) result.
    """
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    count = mask.bit_count()
    if size > count:
        return
    if size == 0:
        yield 0
        return
    if size == count:
        yield mask
        return
    if mask == (1 << count) - 1:
        sub = (1 << size) - 1
        limit = 1 << count
        while sub < limit:
            yield sub
            low = sub & -sub
            ripple = sub + low
            sub = ripple | (((sub ^ ripple) >> 2) // low)
        return
    from itertools import combinations

    single_bits = []
    rest = mask
    while rest:
        low = rest & -rest
        single_bits.append(low)
        rest ^= low
    for combo in combinations(single_bits, size):
        sub = 0
        for bit_mask in combo:
            sub |= bit_mask
        yield sub


def iter_supersets(mask: int, universe: int) -> Iterator[int]:
    """Yield every superset of ``mask`` inside ``universe``.

    ``mask`` must be a subset of ``universe``.  The number of supersets is
    ``2**(popcount(universe) - popcount(mask))``; callers are responsible for
    keeping that tractable.  Mask-native: the loop allocates nothing beyond
    the yielded integers.
    """
    if not is_subset(mask, universe):
        raise ValueError("mask must be a subset of universe")
    free = universe & ~mask
    sub = free
    while True:
        yield mask | sub
        if sub == 0:
            return
        sub = (sub - 1) & free
