"""repro — a full reproduction of Shimi & Castañeda (PODC 2020):
*K-set agreement bounds in round-based models through combinatorial topology*.

The library provides, from scratch:

* :mod:`repro.graphs` — communication graphs, families, upward closures,
  symmetric closures, the graph path product;
* :mod:`repro.combinatorics` — domination / equal-domination / covering /
  distributed-domination / max-covering numbers and covering sequences;
* :mod:`repro.topology` — simplexes, complexes, pseudospheres, homology,
  nerves, shellability, uninterpreted complexes and their interpretations;
* :mod:`repro.models` — oblivious and closed-above round-based models,
  Heard-Of predicates, adversaries, multi-round products;
* :mod:`repro.agreement` — the k-set agreement task, oblivious algorithms
  (MinOfDominatingSet, FloodMin), execution engine;
* :mod:`repro.bounds` — every bound theorem of the paper as an executable
  function with provenance;
* :mod:`repro.verification` — exhaustive algorithm verification and exact
  one-round solvability search (the ground truth for the bounds);
* :mod:`repro.engine` — the shared compute layer: canonical graph keys and
  interning, the process-global :class:`~repro.engine.cache.KernelCache`
  that memoizes the hot kernels across call sites, and the
  ``multiprocessing`` batch driver (:mod:`repro.engine.batch`) behind
  every parallel workload;
* :mod:`repro.store` — the persistent second tier: a SQLite-backed,
  content-addressed result store (``REPRO_STORE=rw``) that warm-starts
  fresh processes from everything earlier processes computed, with
  per-kernel implementation versioning;
* :mod:`repro.dist` — distributed execution: a TCP work-queue
  coordinator plus ``python -m repro worker`` processes, reached by
  passing a ``DistExecutor`` to the same ``run_batch`` that runs the
  serial and pool paths, with the store as the cluster-wide warm-start
  substrate — streamed over the wire to remote hosts at handshake
  (store seeding), no shared filesystem required;
* :mod:`repro.analysis` — the experiment tables (E1..E16) reproducing every
  figure and worked example of the paper, plus the sharded resumable
  solvability sweeps (``python -m repro sweep``).

Architecture: the engine layer
------------------------------
All expensive quantities route through a handful of kernels (domination /
covering numbers, homology ranks, the solvability CSP), each decorated
with :func:`~repro.engine.cache.cached_kernel`.  Kernel results are
memoized under canonical keys — isomorphism-invariant for small graphs,
so a whole symmetric orbit shares one cache entry for label-invariant
numbers; exact adjacency otherwise — and the cache can be disabled at any
time (``repro.engine.cache_disabled()`` or ``REPRO_NO_CACHE=1``) with
identical results.  Kernel misses fall through to the persistent result
store when it is enabled (``REPRO_STORE=rw``), so reruns in new
processes start warm; results carry per-kernel implementation versions,
and the store can be switched off per block with
``repro.store.disabled()`` — again with identical results.  Batch
workloads fan out with
:func:`repro.engine.batch.run_batch`, which keeps the serial ``jobs=1`` path
as the reference semantics: :func:`repro.bounds.bound_report_many` batches
bound reports over many models, and ``python -m repro experiments
--jobs N`` runs the experiment tables on worker processes with merged
cache statistics (``python -m repro cache-stats`` probes cache health).

Importing ``repro`` and its math packages loads no batch driver, store,
cluster, table or trace-export module, and no ``multiprocessing``,
``socket``, ``sqlite3``, ``pickle`` or ``hashlib``: the code that runs a
batch imports them.  Nor does it load ``dataclasses``, ``inspect``,
``ast`` or ``dis``: value classes are :func:`repro._record.record`
classes, built from shared methods rather than generated code, and a
kernel's source lines come from :mod:`linecache`, tokenized by
``inspect`` only when its version is first read.  A serial ``python -m
repro sweep`` with the store off goes no further than the batch driver,
the store's classes and the sweep: it loads none of those stdlib
modules, no table and no :mod:`repro.topology`.

Quickstart
----------
>>> from repro import bound_report
>>> from repro.graphs import wheel, symmetric_closure
>>> report = bound_report(symmetric_closure([wheel(4)]))
>>> report.best_upper.k, report.best_lower.k, report.tight
(3, 2, True)

Batch variant (identical results for any ``jobs``)::

    from repro import bound_report_many
    from repro.graphs import cycle, wheel
    reports = bound_report_many([[cycle(4)], [wheel(5)]], jobs=4)
"""

from .agreement import FloodMin, KSetAgreement, MinOfDominatingSet, execute
from .bounds import Bound, BoundKind, BoundReport, bound_report, bound_report_many
from .engine import KernelCache
from .graphs import Digraph
from .models import ClosedAboveModel, simple_closed_above, symmetric_closed_above
from .verification import decide_one_round_solvability, verify_algorithm

__version__ = "1.10.0"

__all__ = [
    "Digraph",
    "ClosedAboveModel",
    "simple_closed_above",
    "symmetric_closed_above",
    "FloodMin",
    "MinOfDominatingSet",
    "KSetAgreement",
    "execute",
    "Bound",
    "BoundKind",
    "BoundReport",
    "bound_report",
    "bound_report_many",
    "KernelCache",
    "decide_one_round_solvability",
    "verify_algorithm",
    "__version__",
]
