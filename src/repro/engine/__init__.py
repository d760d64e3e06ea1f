"""Shared compute engine: interned graphs and memoized kernels.

Every bound and experiment in this reproduction reduces to a handful of
expensive kernels — domination / covering numbers, homology ranks, the
one-round solvability CSP — and most workloads call them repeatedly on
structurally identical graphs (symmetric closures alone multiply every
generator by up to ``n!`` relabellings).  This package factors the shared
infrastructure out of the call sites:

* :mod:`~repro.engine.canonical` — canonical cache keys for graphs and
  graph sets: an isomorphism-invariant key for small graphs (so every
  member of a symmetric orbit shares one cache line for iso-invariant
  kernels) and the exact adjacency key otherwise, plus graph interning so
  equal graphs share one object.
* :mod:`~repro.engine.cache` — :class:`KernelCache`, a process-global,
  size-bounded memo store with per-kernel hit/miss statistics, and the
  :func:`cached_kernel` decorator adopted by the hot kernels in
  :mod:`repro.graphs`, :mod:`repro.combinatorics`, :mod:`repro.topology`
  and :mod:`repro.verification`.
* :mod:`~repro.engine.batch` — ``Job`` / ``run_batch``, a
  ``multiprocessing`` fan-out driver whose fork workers inherit the
  parent's warm cache, with merged statistics, used by
  ``bounds.bound_report_many``, the sweeps and the experiment runner
  (``python -m repro experiments --jobs N``).  This package does not
  import it, so the math kernels load no ``multiprocessing``; import its
  names from :mod:`repro.engine.batch`.

The cache can be disabled globally (``KERNEL_CACHE.enabled = False``),
temporarily (:func:`cache_disabled`), or via the ``REPRO_NO_CACHE``
environment variable; the equivalence tests assert that results are
identical either way.

Second tier: when :mod:`repro.store` is switched on (``REPRO_STORE=ro``
or ``rw``), kernel misses fall through to a persistent SQLite result
store keyed on ``(kernel, implementation version, canonical key)`` before
computing, and new results are written back in batches — so fresh
processes (reruns, CI, batch workers) warm-start from everything any
earlier process computed.  ``run_batch`` drains each worker's store
writes back to the parent with the job results: the parent is the only
database writer, and it persists each job as it completes, which is what
makes sharded sweeps (:mod:`repro.analysis.sweeps`) resumable after a
kill.
"""

from .cache import (
    KERNEL_CACHE,
    KERNEL_VERSIONS,
    CacheStats,
    KernelCache,
    cache_disabled,
    cached_kernel,
    kernel_source_version,
)
from .canonical import (
    ISO_KEY_MAX_N,
    adjacency_key,
    graph_set_key,
    intern_graph,
    iso_key,
)

__all__ = [
    "KERNEL_CACHE",
    "KERNEL_VERSIONS",
    "CacheStats",
    "KernelCache",
    "cache_disabled",
    "cached_kernel",
    "kernel_source_version",
    "ISO_KEY_MAX_N",
    "adjacency_key",
    "graph_set_key",
    "intern_graph",
    "iso_key",
]
