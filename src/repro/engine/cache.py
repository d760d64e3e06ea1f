"""Process-global memo store for the expensive kernels.

:class:`KernelCache` is a size-bounded LRU mapping ``(kernel, key)`` pairs
to computed values, with per-kernel hit/miss/eviction counters.  The
:func:`cached_kernel` decorator routes a function through the global
:data:`KERNEL_CACHE`; each decorated function supplies a ``key`` callable
that maps its arguments to a hashable cache key (usually built from the
canonical graph keys of :mod:`~repro.engine.canonical`).

Cached kernels must be pure and must return values the caller will not
mutate (ints, tuples, frozen records); the cache hands back the stored
object itself, not a copy.

The cache is deliberately process-local.  Under :func:`~repro.engine.batch.
run_batch` each worker inherits the parent's warm cache at ``fork`` time,
accumulates its own statistics, and ships the per-job deltas back to the
parent, which absorbs them so that ``python -m repro cache-stats`` and the
experiment table footers observe the whole run.

Second tier: when the persistent result store (:mod:`repro.store`) is
active, a kernel miss falls through to it *before* computing, and freshly
computed results are written back — so a brand-new process starts warm
against work any previous process already did.  Each kernel carries a
*version* (explicit ``@cached_kernel(version=...)`` or a hash of its
source) that is part of the store identity, ensuring an edited kernel
never reads results computed by its former implementation.  A source
hash is taken from the lines read at decoration, on the first read of
the version, so start-up tokenizes and hashes nothing.  The store is
consulted only on the enabled-cache path: :func:`cache_disabled` and
``REPRO_NO_CACHE`` bypass *all* memoization tiers, keeping the
uncached reference semantics byte-exact.
"""

from __future__ import annotations

import linecache
import os
from collections import OrderedDict
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from functools import lru_cache, wraps
from threading import RLock

from .._record import record
from ..obs.trace import TRACER

__all__ = [
    "CacheStats",
    "KernelCache",
    "KERNEL_CACHE",
    "KERNEL_VERSIONS",
    "cached_kernel",
    "cache_disabled",
    "kernel_source_version",
]

_MISSING = object()


@record
class CacheStats:
    """Immutable snapshot of cache activity, mergeable across workers."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    by_kernel: tuple[tuple[str, int, int], ...] = ()
    """Per-kernel ``(name, hits, misses)`` rows, sorted by name."""

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Combine two snapshots (e.g. parent stats + a worker delta)."""
        merged: dict[str, list[int]] = {}
        for name, hits, misses in self.by_kernel + other.by_kernel:
            row = merged.setdefault(name, [0, 0])
            row[0] += hits
            row[1] += misses
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            entries=max(self.entries, other.entries),
            by_kernel=tuple(
                (name, row[0], row[1]) for name, row in sorted(merged.items())
            ),
        )

    def delta_since(self, baseline: "CacheStats") -> "CacheStats":
        """Activity between ``baseline`` and this snapshot."""
        base = {name: (h, m) for name, h, m in baseline.by_kernel}
        rows = []
        for name, hits, misses in self.by_kernel:
            bh, bm = base.get(name, (0, 0))
            if hits - bh or misses - bm:
                rows.append((name, hits - bh, misses - bm))
        return CacheStats(
            hits=self.hits - baseline.hits,
            misses=self.misses - baseline.misses,
            evictions=self.evictions - baseline.evictions,
            entries=self.entries,
            by_kernel=tuple(rows),
        )

    def to_dict(self) -> dict:
        """JSON-ready representation (``cache-stats --json`` and CI)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
            "hit_rate": self.hit_rate,
            "by_kernel": [
                {"kernel": name, "hits": h, "misses": m}
                for name, h, m in self.by_kernel
            ],
        }

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"kernel cache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), {self.entries} entries, "
            f"{self.evictions} evictions"
        ]
        for name, hits, misses in self.by_kernel:
            total = hits + misses
            rate = hits / total if total else 0.0
            lines.append(f"  {name}: {hits}/{total} hits ({rate:.0%})")
        return "\n".join(lines)


class _KernelCounters:
    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = self.misses = 0


class KernelCache:
    """Size-bounded LRU memo store with per-kernel statistics.

    Parameters
    ----------
    max_entries:
        Upper bound on stored values; the least recently used entry is
        evicted first.  The default comfortably holds every kernel result
        of a full experiment run while bounding worst-case memory.
    enabled:
        Master switch; when False every lookup misses and nothing is
        stored (used by the equivalence tests and ``REPRO_NO_CACHE``).
    """

    def __init__(self, max_entries: int = 1 << 16, enabled: bool = True):
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self.enabled = enabled
        self._data: OrderedDict[tuple, object] = OrderedDict()
        self._kernels: dict[str, _KernelCounters] = {}
        self._evictions = 0
        self._absorbed = CacheStats()
        self._lock = RLock()

    # ------------------------------------------------------------------
    def lookup(self, kernel: str, key: object) -> object:
        """Return the stored value or the module-private miss sentinel."""
        with self._lock:
            counters = self._kernels.setdefault(kernel, _KernelCounters())
            if not self.enabled:
                counters.misses += 1
                return _MISSING
            full_key = (kernel, key)
            value = self._data.get(full_key, _MISSING)
            if value is _MISSING:
                counters.misses += 1
            else:
                counters.hits += 1
                self._data.move_to_end(full_key)
            return value

    def store(self, kernel: str, key: object, value: object) -> None:
        """Insert a computed value, evicting LRU entries when full."""
        if not self.enabled:
            return
        with self._lock:
            self._data[(kernel, key)] = value
            self._data.move_to_end((kernel, key))
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop all entries and reset statistics."""
        with self._lock:
            self._data.clear()
            self._kernels.clear()
            self._evictions = 0
            self._absorbed = CacheStats()

    def __len__(self) -> int:
        return len(self._data)

    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """Snapshot of all activity, including absorbed worker deltas."""
        with self._lock:
            local = CacheStats(
                hits=sum(c.hits for c in self._kernels.values()),
                misses=sum(c.misses for c in self._kernels.values()),
                evictions=self._evictions,
                entries=len(self._data),
                by_kernel=tuple(
                    (name, c.hits, c.misses)
                    for name, c in sorted(self._kernels.items())
                ),
            )
            return local.merge(self._absorbed)

    def absorb(self, delta: CacheStats) -> None:
        """Fold a worker's statistics delta into this cache's totals."""
        with self._lock:
            self._absorbed = self._absorbed.merge(
                CacheStats(
                    hits=delta.hits,
                    misses=delta.misses,
                    evictions=delta.evictions,
                    by_kernel=delta.by_kernel,
                )
            )

    @contextmanager
    def disabled(self):
        """Context manager: run with the cache switched off."""
        previous = self.enabled
        self.enabled = False
        try:
            yield self
        finally:
            self.enabled = previous


#: The process-global cache every :func:`cached_kernel` routes through.
KERNEL_CACHE = KernelCache(enabled=not os.environ.get("REPRO_NO_CACHE"))


class _KernelVersions(Mapping):
    """Kernel name -> implementation version, for every decorated kernel.

    A version is resolved when it is read, so every reader (the store's
    loads and saves, seeding, ``store vacuum``) gets the string.
    """

    def __init__(self) -> None:
        self._resolvers: dict[str, Callable[[], str]] = {}

    def register(self, kernel: str, resolve: Callable[[], str]) -> None:
        self._resolvers[kernel] = resolve

    def __getitem__(self, kernel: str) -> str:
        return self._resolvers[kernel]()

    def __iter__(self) -> Iterator[str]:
        return iter(self._resolvers)

    def __len__(self) -> int:
        return len(self._resolvers)


#: Registry of every decorated kernel's implementation version,
#: populated at decoration time.  The persistent store uses it to refuse
#: results of other implementations and to garbage-collect stale rows
#: (``python -m repro store vacuum``).
KERNEL_VERSIONS = _KernelVersions()


def cache_disabled():
    """Context manager disabling the global :data:`KERNEL_CACHE`."""
    return KERNEL_CACHE.disabled()


def _source_version(fn: Callable) -> Callable[[], str]:
    """``fn``'s default version: its source read now, hashed on first call.

    ``inspect.getsource`` is ``findsource`` (the file's lines, from the
    first decorator or ``def`` line on) followed by ``getblock``
    (tokenizing the function out of them).  The lines are read here, at
    decoration, straight from :mod:`linecache` as ``findsource`` reads
    them, so the version is always that of the code that runs, even if
    the file is edited after import; ``inspect``, tokenizing and hashing
    wait until something reads the version.
    """
    while hasattr(fn, "__wrapped__"):  # inspect.unwrap
        fn = fn.__wrapped__
    code = fn.__code__
    linecache.checkcache(code.co_filename)
    lines = linecache.getlines(code.co_filename, fn.__globals__)

    @lru_cache(maxsize=None)
    def version() -> str:
        import hashlib
        import inspect

        if not lines:  # pragma: no cover - no source available
            source = fn.__qualname__
        else:
            source = "".join(inspect.getblock(lines[code.co_firstlineno - 1:]))
        return hashlib.sha256(source.encode("utf-8")).hexdigest()[:12]

    return version


def kernel_source_version(fn: Callable) -> str:
    """Default kernel version: a short hash of the function's source.

    Any edit to the kernel body changes the version, orphaning its stored
    results — the safe default.  Kernels whose semantics are stable across
    cosmetic edits may pin ``@cached_kernel(version="1")`` instead so a
    reformat does not cold-start the store.  Falls back to the qualified
    name when source is unavailable (REPLs, frozen builds).
    """
    return _source_version(fn)()


def _second_tier():
    """The active persistent store, or ``None``.

    Imported lazily so the engine stays importable without the store
    package and the store stays importable without the engine; after the
    first call this is a ``sys.modules`` dictionary hit.
    """
    from .. import store as result_store

    return result_store.active_store()


def cached_kernel(
    name: str | None = None,
    *,
    key: Callable[..., object] | None = None,
    cache: KernelCache | None = None,
    version: str | None = None,
):
    """Decorator memoizing a pure kernel in the global :class:`KernelCache`.

    Parameters
    ----------
    name:
        Statistics label; defaults to the function's qualified name.
    key:
        Called with the kernel's arguments, must return a hashable cache
        key.  Defaults to ``(*args, *sorted(kwargs))`` verbatim, which is
        only correct when every argument is hashable and canonical —
        kernels taking graphs should build keys from
        :func:`~repro.engine.canonical.adjacency_key` /
        :func:`~repro.engine.canonical.iso_key`.
    cache:
        Override the store (tests); defaults to :data:`KERNEL_CACHE`.
    version:
        Implementation version for the persistent second tier; defaults
        to :func:`kernel_source_version`.  Bump an explicit version on
        any semantic change, or keep the default to invalidate on every
        source edit.  :data:`KERNEL_VERSIONS` maps the kernel's name to
        it.

    The undecorated function stays reachable via ``__wrapped__``.
    """

    def decorate(fn):
        kernel = name or fn.__qualname__
        if version is None:
            kernel_version = _source_version(fn)
        else:
            pinned = str(version)

            def kernel_version() -> str:
                return pinned

        KERNEL_VERSIONS.register(kernel, kernel_version)
        store = cache

        def _invoke(args, kwargs):
            """One kernel call; returns ``(value, tier)``.

            ``tier`` names which memoization layer served the call —
            ``memo`` / ``seed`` / ``store`` / ``computed``
            (or ``bypass`` when caching is off) — and is what the trace
            spans record as hit attribution.
            """
            target = store if store is not None else KERNEL_CACHE
            if not target.enabled:
                # Count the bypass as a miss so disabled runs stay
                # observable.  The persistent tier is bypassed too:
                # disabling the cache means "compute the reference value".
                target.lookup(kernel, None)
                return fn(*args, **kwargs), "bypass"
            cache_key = (
                key(*args, **kwargs)
                if key is not None
                else (args, tuple(sorted(kwargs.items())))
            )
            value = target.lookup(kernel, cache_key)
            if value is not _MISSING:
                return value, "memo"
            tier = _second_tier()
            if tier is not None:
                from ..store.backend import MISS as _STORE_MISS

                stored = tier.load(kernel, kernel_version(), cache_key)
                if stored is _STORE_MISS:
                    value = fn(*args, **kwargs)
                    tier.save(kernel, kernel_version(), cache_key, value)
                    served = "computed"
                else:
                    value = stored
                    # The store knows which of its layers answered
                    # (pending/sqlite or seed overlay).
                    served = tier.last_load_tier() or "store"
            else:
                value = fn(*args, **kwargs)
                served = "computed"
            target.store(kernel, cache_key, value)
            return value, served

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not TRACER.enabled:
                return _invoke(args, kwargs)[0]
            with TRACER.span(f"kernel:{kernel}", cat="kernel") as sp:
                value, served = _invoke(args, kwargs)
                sp.set(tier=served)
            return value

        wrapper.kernel_name = kernel
        return wrapper

    return decorate
