"""Stable content-addressed fingerprints for kernel cache keys.

The in-process :class:`~repro.engine.cache.KernelCache` keys entries on
Python objects and only needs ``hash()``/``==`` — both of which vary
between interpreter runs (string hash randomisation makes ``frozenset``
iteration order, and therefore naive ``pickle``/``repr`` serialisations,
process-dependent).  The persistent store needs a *stable* identity: the
same logical key must map to the same database row in every process,
forever.

:func:`fingerprint` therefore canonicalises a key recursively into a
tagged byte string — sets are serialised as the sorted multiset of their
elements' encodings, mappings as sorted ``(key, value)`` encodings — and
hashes it with SHA-256.  The encoder understands the primitives kernels
actually use (ints, strings, bools, floats, bytes, ``None``, tuples,
lists, sets, dicts) plus the repo's structural types (``Digraph``,
``Simplex``, ``SimplicialComplex``), recognised structurally so this
module stays import-free of the heavier packages.

Keys containing anything else are *unfingerprintable*: :func:`fingerprint`
returns ``None`` and the store layer silently skips persistence for that
entry (the in-memory cache still works).  Unknown types must not fall back
to ``repr`` — a wrong-but-stable encoding would be a correctness bug,
while refusing to persist is only a missed optimisation.
"""

from __future__ import annotations

from itertools import chain

__all__ = ["fingerprint", "encode_key", "Unfingerprintable"]

#: Bump when the encoding below changes shape; part of every digest, so a
#: format change reads as a store miss instead of a misinterpreted row.
_ENCODING_VERSION = b"repro-key-v1;"


class Unfingerprintable(TypeError):
    """The key contains an object with no stable canonical encoding."""


def encode_key(obj: object) -> bytes:
    """Canonical tagged byte encoding of a key object.

    Deterministic across processes and interpreter restarts; raises
    :class:`Unfingerprintable` for objects outside the supported closure.
    """
    # bool before int: True/False are ints but must not collide with 1/0.
    if obj is None:
        return b"N;"
    if obj is True:
        return b"T;"
    if obj is False:
        return b"F;"
    if isinstance(obj, int):
        body = str(obj).encode("ascii")
        return b"i" + body + b";"
    if isinstance(obj, float):
        body = repr(obj).encode("ascii")
        return b"f" + body + b";"
    if isinstance(obj, str):
        body = obj.encode("utf-8")
        return b"s%d:" % len(body) + body
    if isinstance(obj, bytes):
        return b"b%d:" % len(obj) + obj
    if isinstance(obj, tuple):
        return _encode_tuple(obj)
    if isinstance(obj, list):
        return b"[" + b"".join(encode_key(x) for x in obj) + b"]"
    if isinstance(obj, (set, frozenset)):
        return b"{" + b"".join(sorted(encode_key(x) for x in obj)) + b"}"
    if isinstance(obj, dict):
        items = sorted(
            (encode_key(k), encode_key(v)) for k, v in obj.items()
        )
        return b"<" + b"".join(k + v for k, v in items) + b">"
    return _encode_structural(obj)


_INT = frozenset({int})
_TUPLE = frozenset({tuple})


def _encode_tuple(items: tuple) -> bytes:
    """``(`` + each member's encoding + ``)``, flat where the shape allows.

    Two shapes skip the per-element recursion, with the same bytes: a
    tuple of plain ints (a graph's out-rows, a value tuple) formats in one
    step, and a tuple of ``(n, out_rows)`` pairs (a graph-set key, see
    :func:`repro.engine.canonical.graph_set_key`) one step per pair.
    Members are matched by exact type, so bools and int subclasses stay
    on the recursive path.
    """
    kinds = set(map(type, items))
    if kinds <= _INT:
        return b"(" + b"i%d;" * len(items) % items + b")"
    if kinds == _TUPLE and _are_graph_keys(items):
        return b"(" + b"".join([
            b"(i%d;(" % n + b"i%d;" * len(rows) % rows + b"))"
            for n, rows in items
        ]) + b")"
    return b"(" + b"".join(map(encode_key, items)) + b")"


def _are_graph_keys(items: tuple) -> bool:
    """True iff every member is an ``(int, tuple of ints)`` pair."""
    if set(map(len, items)) != {2}:
        return False
    ns, rows = zip(*items)
    return (
        set(map(type, ns)) <= _INT
        and set(map(type, rows)) == _TUPLE
        and set(map(type, chain.from_iterable(rows))) <= _INT
    )


def _encode_structural(obj: object) -> bytes:
    """Encode the repo's structural types without importing their modules.

    Recognition is by class name plus the defining attributes, which keeps
    this module dependency-free while staying precise enough that an
    unrelated type cannot be silently mis-encoded.
    """
    name = type(obj).__name__
    if name == "Digraph":
        n = getattr(obj, "n", None)
        rows = getattr(obj, "out_rows", None)
        if isinstance(n, int) and isinstance(rows, tuple):
            return b"G" + encode_key((n, rows))
    elif name == "Simplex":
        vertices = getattr(obj, "vertices", None)
        if isinstance(vertices, frozenset):
            return b"S" + encode_key(vertices)
    elif name == "SimplicialComplex":
        facets = getattr(obj, "facets", None)
        if facets is not None:
            return b"C" + encode_key(frozenset(facets))
    raise Unfingerprintable(
        f"no stable encoding for {type(obj).__module__}.{name}"
    )


def fingerprint(key: object) -> str | None:
    """SHA-256 hex digest of the canonical key encoding, or ``None``.

    ``None`` means the key cannot be persisted safely; callers must treat
    it as a store miss and skip the write.
    """
    try:
        encoded = encode_key(key)
    except Unfingerprintable:
        return None
    import hashlib

    digest = hashlib.sha256()
    digest.update(_ENCODING_VERSION)
    digest.update(encoded)
    return digest.hexdigest()
