"""Cache observability: a standard probe workload for ``repro cache-stats``.

A fresh process has an empty kernel cache, so raw counters alone say
nothing about whether memoization still works.  :func:`cache_probe` runs a
fixed, representative kernel workload several times against a cleared
cache and reports per-pass wall times plus the cache statistics; a healthy
engine shows the warm passes an order of magnitude faster than the cold
one.  The CLI (``python -m repro cache-stats``) prints the result, making
caching regressions observable without a profiler.

:func:`store_probe` is the second-tier counterpart (``python -m repro
store probe``): it clears the in-process cache *between* passes, so any
warm-pass speedup is attributable to the persistent store alone — the
same observation a fresh process rerunning an experiment suite makes.
Both reports serialise to JSON (``--json``) for CI assertions.
"""

from __future__ import annotations

import time

from .._record import record
from .cache import KERNEL_CACHE, CacheStats

__all__ = ["ProbeReport", "StoreProbeReport", "cache_probe", "store_probe"]


@record
class ProbeReport:
    """Per-pass wall times over a fixed workload, plus cache statistics."""

    pass_times: tuple[float, ...]
    stats: CacheStats

    @property
    def cold_time(self) -> float:
        return self.pass_times[0]

    @property
    def warm_time(self) -> float:
        """Mean wall time of the warm (second and later) passes."""
        warm = self.pass_times[1:]
        return sum(warm) / len(warm)

    @property
    def speedup(self) -> float:
        """Cold-pass time over mean warm-pass time."""
        return self.cold_time / max(self.warm_time, 1e-9)

    def describe(self) -> str:
        lines = [f"pass 1 (cold): {self.cold_time * 1000:.1f} ms"]
        for index, elapsed in enumerate(self.pass_times[1:], start=2):
            lines.append(f"pass {index} (warm): {elapsed * 1000:.1f} ms")
        lines.append(f"warm speedup: {self.speedup:.1f}x")
        lines.append(self.stats.describe())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready representation for tooling and CI assertions."""
        return {
            "pass_times": list(self.pass_times),
            "cold_time": self.cold_time,
            "warm_time": self.warm_time,
            "speedup": self.speedup,
            "cache": self.stats.to_dict(),
        }


def _probe_workload(n: int) -> None:
    """A fixed tour of the memoized kernels on standard families."""
    from ..bounds.report import bound_report
    from ..combinatorics.covering import covering_numbers
    from ..combinatorics.domination import equal_domination_number
    from ..graphs.dominating import domination_number
    from ..graphs.families import cycle, union_of_stars, wheel
    from ..graphs.metrics import diameter
    from ..graphs.symmetry import symmetric_closure
    from ..verification.solvability import decide_one_round_solvability

    for g in (cycle(n), wheel(n), union_of_stars(n, (0, 1))):
        domination_number(g)
        equal_domination_number(g)
        covering_numbers(g)
        diameter(g)
    sym = sorted(symmetric_closure([union_of_stars(n, (0, 1))]))
    bound_report(sym)
    decide_one_round_solvability([cycle(3)], 1)
    decide_one_round_solvability(sorted(symmetric_closure([cycle(3)])), 2)


def cache_probe(n: int = 5, passes: int = 3) -> ProbeReport:
    """Time the standard workload against a cleared cache.

    The first pass computes everything (cold); later passes should be
    nearly free.  Clears the global cache first so the report reflects
    this probe alone.
    """
    if passes < 2:
        raise ValueError(f"need at least 2 passes to compare, got {passes}")
    KERNEL_CACHE.clear()
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        _probe_workload(n)
        times.append(time.perf_counter() - start)
    return ProbeReport(pass_times=tuple(times), stats=KERNEL_CACHE.stats())


@record
class StoreProbeReport:
    """Per-pass wall times with the in-process cache cleared every pass.

    Pass 1 computes (and, in ``rw`` mode, persists); every later pass
    starts from an empty :data:`KERNEL_CACHE` — a stand-in for a fresh
    process — so its speed is the store's doing alone.
    """

    pass_times: tuple[float, ...]
    cache_stats: CacheStats
    store_stats: object
    """Merged :class:`~repro.store.StoreStats` over all passes."""
    store_path: str
    store_mode: str

    @property
    def cold_time(self) -> float:
        return self.pass_times[0]

    @property
    def warm_time(self) -> float:
        """Mean wall time of the warm (second and later) passes."""
        warm = self.pass_times[1:]
        return sum(warm) / len(warm)

    @property
    def speedup(self) -> float:
        """Cold-pass time over mean warm-pass (fresh-process) time."""
        return self.cold_time / max(self.warm_time, 1e-9)

    def describe(self) -> str:
        lines = [
            f"store: {self.store_path} ({self.store_mode})",
            f"pass 1 (cold, computes + persists): "
            f"{self.cold_time * 1000:.1f} ms",
        ]
        for index, elapsed in enumerate(self.pass_times[1:], start=2):
            lines.append(
                f"pass {index} (fresh cache, warm store): "
                f"{elapsed * 1000:.1f} ms"
            )
        lines.append(f"warm-start speedup: {self.speedup:.1f}x")
        lines.append(self.store_stats.describe())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "store_path": self.store_path,
            "store_mode": self.store_mode,
            "pass_times": list(self.pass_times),
            "cold_time": self.cold_time,
            "warm_time": self.warm_time,
            "speedup": self.speedup,
            "store": self.store_stats.to_dict(),
            "cache": self.cache_stats.to_dict(),
        }


def store_probe(n: int = 5, passes: int = 2) -> StoreProbeReport:
    """Measure what the persistent store buys a brand-new process.

    Requires an active store (``REPRO_STORE=ro|rw``).  The kernel cache
    is cleared before *every* pass and the store flushed after it, so
    pass 2+ can only be fast by warm-starting from rows that reached the
    file; against a pre-populated store even the first pass is warm (the
    probe is then an end-to-end hit check).
    """
    from .. import store as result_store

    store = result_store.active_store()
    if store is None:
        raise ValueError(
            "store probe needs an active result store; set REPRO_STORE=rw "
            "(or ro against an existing store file)"
        )
    if passes < 2:
        raise ValueError(f"need at least 2 passes to compare, got {passes}")
    baseline = store.stats()
    times = []
    for _ in range(passes):
        KERNEL_CACHE.clear()
        start = time.perf_counter()
        _probe_workload(n)
        times.append(time.perf_counter() - start)
        store.flush()
    return StoreProbeReport(
        pass_times=tuple(times),
        cache_stats=KERNEL_CACHE.stats(),
        store_stats=store.stats().delta_since(baseline),
        store_path=store.path,
        store_mode=store.mode,
    )
