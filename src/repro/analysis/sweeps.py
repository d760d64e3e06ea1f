"""Sharded exhaustive solvability sweeps, resumable through the store (E10).

The E10 experiment asks, for *every* symmetric closed-above model
generated by a single graph on ``n`` processes (one representative per
isomorphism class), for the exact smallest solvable ``k`` — ground truth
the paper's bound interval is measured against.  At ``n = 3`` this is 16
classes and seconds of CSP search; at ``n = 4`` it is 218 classes and
hours, which is only practical because every layer below persists:

* every verdict is a versioned cached kernel keyed on the *isomorphism
  class* (``iso_key``), so it is computed once per class ever,
  machine-wide, when the result store is in ``rw`` mode;
* jobs fan out over :func:`~repro.engine.batch.run_batch`, whose parent
  process persists each job as it completes — rerunning a sweep killed
  midway against the same store recomputes no finished job;
* a rerun over a warm store is pure table assembly (every job hits).

**One verdict path per class.**  :func:`plan_sweep` turns every class
into the same jobs: one ``solvability_bounds`` job (the paper's
interval) and one ``solvability_subshard`` job per candidate ``k =
1..n`` (is ``k``-set agreement one-round solvable on the full model?).
Once :func:`~repro.engine.batch.run_batch` returns, the pure
:func:`reduce_sweep_row` folds each class's job values into its ``(lo,
hi, exact)`` row.  Each job is its own ``@cached_kernel`` with a
canonical store fingerprint, so per-``k`` verdicts persist, resume after
a kill, and network-seed to distributed workers independently of their
siblings.  Jobs are emitted heaviest-first by
:func:`estimate_class_cost`, which the FIFO coordinator of
:mod:`repro.dist` turns into heaviest-first scheduling across workers.

``python -m repro sweep --n 4 --jobs N`` is the CLI entry point
(``--distributed HOST:PORT`` fans the jobs out to ``python -m repro
worker`` processes instead, same results);
:func:`repro.analysis.tables.e10_solvability_frontier_table` delegates
here so the experiment table and the sweep never diverge.
"""

from __future__ import annotations

from .._record import record
from ..bounds.report import bound_report
from ..engine.batch import BatchResult, Job, run_batch
from ..engine.cache import cached_kernel
from ..engine.canonical import iso_key
from ..errors import ConfigError
from ..graphs.digraph import Digraph
from ..graphs.symmetry import symmetric_closure
from ..models.closed_above import symmetric_closed_above
from ..obs.trace import TRACER
from ..verification.solvability import decide_one_round_solvability

__all__ = [
    "DEFAULT_BUDGET",
    "SweepClassReport",
    "SweepPlan",
    "SweepReport",
    "check_sweep_values",
    "estimate_class_cost",
    "plan_sweep",
    "reduce_sweep_row",
    "solvability_sweep",
    "sweep_headers",
]

#: Cap on the fully enumerated model a class searches over (mirrors the
#: ``search --budget`` CLI default; every model on ``n <= 4`` fits).
DEFAULT_BUDGET = 1 << 12


def estimate_class_cost(g: Digraph, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """Estimated enumerated-model size of ``g``'s class, capped by budget.

    The up-set of ``g`` alone holds ``2**m`` graphs, where ``m`` counts
    the proper edges ``g`` is missing, and the symmetric closed-above
    model is a union of such up-sets over the relabelling orbit — so
    ``2**m`` is a cheap lower bound on the fully enumerated model, whose
    enumeration (and every CSP over it) is capped at ``budget`` graphs
    anyway.  No enumeration, no CSP: one popcount, which is what lets
    every process — serial or distributed — order jobs identically.  It
    steers scheduling only, never the rows.
    """
    missing = n * (n - 1) - g.proper_edge_count
    return min(1 << missing, budget)


# ----------------------------------------------------------------------
# Kernels: a class's bounds and its per-k verdicts
# ----------------------------------------------------------------------

@cached_kernel(
    name="solvability_bounds",
    key=lambda g, n: (iso_key(g), n),
    version="1",
)
def _class_bounds(g: Digraph, n: int) -> tuple[int, int]:
    """The paper's ``(lower k, upper k)`` interval for ``g``'s class.

    Bound computation never enumerates the model; it is a job of its
    own so that a row is a pure fold of job values, and persists
    independently all the same.
    """
    sym = sorted(symmetric_closure([g]))
    report = bound_report(sym)
    return (report.best_lower.k, report.best_upper.k)


# The version banked rows carry: `store vacuum` deletes any other's rows.
@cached_kernel(
    name="solvability_subshard",
    key=lambda g, n, budget, k: (iso_key(g), n, budget, k),
    version="1+bitset",
)
def _subshard_solvable(g: Digraph, n: int, budget: int, k: int) -> bool:
    """Is ``k``-set agreement one-round solvable on the full model of
    ``g``'s class?

    Everything here is invariant under relabelling of ``g`` (solvability
    of a symmetric closed-above model doesn't see labels), which is what
    makes ``iso_key`` a sound cache key.

    ``k >= n`` is answered analytically: every graph in this universe
    carries all self-loops (a :class:`~repro.graphs.digraph.Digraph`
    invariant), so each process hears at least itself, every view is
    non-empty, and any validity-respecting map decides at most ``n``
    distinct values per execution — ``k``-set agreement with ``k >= n``
    is solvable by *every* valid map.  The CSP would confirm this at the
    cost of building and subsumption-reducing the largest execution set
    of the class.  Each class's ``k = n`` job is answered here.
    """
    if k >= n:
        return True
    model = symmetric_closed_above([g])
    full = sorted(model.iter_graphs(max_graphs=budget))
    return bool(decide_one_round_solvability(full, k).solvable)


def reduce_sweep_row(values: tuple, g: Digraph) -> list[object]:
    """Pure fold of a class's job values into its table row.

    ``values`` is ``((lo, hi), solvable@k=1, ..., solvable@k=n)`` in the
    job order of :func:`plan_sweep`.  ``exact`` is the smallest solvable
    ``k``: solvability is monotone in ``k``, so the per-``k`` verdicts
    are a staircase and its first step is the exact answer.
    """
    (lo, hi), *flags = values
    exact = next((k for k, flag in enumerate(flags, start=1) if flag), None)
    return [
        sorted(g.proper_edges()),
        f"({lo}, {hi}]",
        exact,
        exact is not None and lo < exact <= hi,
        exact == lo + 1,
    ]


def sweep_headers() -> list[str]:
    return [
        "generator (proper edges)",
        "lower k+1..upper (paper)",
        "exact solvable k",
        "within bounds",
        "tight@exact",
    ]


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------

@record
class _ClassPlan:
    """One class's slice of the job plan (internal to assembly)."""

    index: int
    generator: Digraph
    estimate: int
    job_indices: tuple[int, ...]


@record
class SweepPlan:
    """A sweep's job plan: tasks plus class metadata.

    ``tasks`` are emitted heaviest-first (estimated cost descending, then
    class index for determinism): the batch drivers consume them in
    order and the distributed coordinator's FIFO queue hands the giant
    classes' jobs out first, so no worker ends up alone with the
    heaviest class after the cheap ones drained.  Row order is *not*
    affected — assembly maps results back through ``classes``.
    """

    n: int
    budget: int
    classes: tuple[_ClassPlan, ...]
    tasks: tuple[Job, ...]


def plan_sweep(
    representatives,
    n: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> SweepPlan:
    """Build the job plan for ``representatives``.

    Every class becomes one bounds job plus one job per ``k = 1..n``,
    whose values :func:`reduce_sweep_row` folds in that order.  The plan
    depends only on ``(g, n, budget)``, so every process — serial
    reference, pool parent, coordinator, remote worker — plans
    identically.
    """
    with TRACER.span("sweep:plan", cat="sweep", n=n) as _plan_span:
        entries = [
            (index, g, estimate_class_cost(g, n, budget))
            for index, g in enumerate(representatives)
        ]
        tasks: list[Job] = []
        classes: list[_ClassPlan | None] = [None] * len(entries)
        for index, g, estimate in sorted(
            entries, key=lambda entry: (-entry[2], entry[0])
        ):
            job_indices = [len(tasks)]
            tasks.append(
                Job(
                    name=f"sweep:n={n}:{index}:bounds",
                    fn=_class_bounds,
                    args=(g, n),
                )
            )
            for k in range(1, n + 1):
                job_indices.append(len(tasks))
                tasks.append(
                    Job(
                        name=f"sweep:n={n}:{index}:k={k}",
                        fn=_subshard_solvable,
                        args=(g, n, budget, k),
                    )
                )
            classes[index] = _ClassPlan(
                index=index,
                generator=g,
                estimate=estimate,
                job_indices=tuple(job_indices),
            )
        plan = SweepPlan(
            n=n,
            budget=budget,
            classes=tuple(classes),
            tasks=tuple(tasks),
        )
        _plan_span.set(classes=len(plan.classes), jobs=len(plan.tasks))
    return plan


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

#: Kernels whose per-job hit/miss deltas decide warm-vs-computed below.
_SWEEP_KERNELS = ("solvability_subshard", "solvability_bounds")


def _job_warm(result) -> bool:
    """Did this job's (single) sweep-kernel call come back from a cache?

    Every sweep job makes exactly one top-level call into one of the
    sweep kernels, so any hit — kernel cache (same process) or store
    tier (earlier run, seeded worker) — means the CSP never ran.  A
    store-warm call still records a kernel-*cache* miss on its way to
    the store hit, which is why hits, not misses, are the signal.
    """
    for name, hits, _misses in result.stats.by_kernel:
        if name in _SWEEP_KERNELS and hits:
            return True
    if result.store_stats is not None:
        for name, hits, _misses, _writes in result.store_stats.by_kernel:
            if name in _SWEEP_KERNELS and hits:
                return True
    return False


@record
class SweepClassReport:
    """One class's accounting: cost estimate, job count, timing."""

    index: int
    edges: int
    """Proper edge count of the class representative (density)."""
    estimate: int
    """:func:`estimate_class_cost` — the scheduling order's input."""
    subshards: int
    """Jobs behind this class (bounds plus one per ``k``)."""
    elapsed: float
    """Compute seconds summed over the class's jobs."""
    resumed: bool
    """True when every lookup was warm — no CSP ran for this class."""

    def to_dict(self) -> dict:
        """JSON-ready representation (``sweep --json`` per-class rows)."""
        return {
            "index": self.index,
            "edges": self.edges,
            "estimate": self.estimate,
            "subshards": self.subshards,
            "elapsed": self.elapsed,
            "resumed": self.resumed,
        }


@record
class SweepReport:
    """A sweep's table plus the per-class and resume accounting."""

    n: int
    headers: list[str]
    rows: list[list[object]]
    total_classes: int
    sharded: int
    """Classes actually run this call (``limit`` may skip the tail)."""
    batch: BatchResult
    """Timings and merged cache/store statistics of the job batch."""
    classes: tuple[SweepClassReport, ...] = ()
    """Per-class cost estimates and timings."""

    @property
    def resumed(self) -> int:
        """Classes answered without running the CSP search this call:
        every one of their jobs hit the kernel cache (same process) or
        the persistent store (earlier, possibly killed, run)."""
        return sum(1 for c in self.classes if c.resumed)

    def describe(self) -> str:
        within = sum(1 for row in self.rows if row[3])
        return (
            f"sweep n={self.n}: {self.sharded}/{self.total_classes} "
            f"isomorphism classes, {self.resumed} resumed (no recompute), "
            f"{within}/{len(self.rows)} within the paper's bounds"
        )


def check_sweep_values(
    n: int,
    *,
    jobs: int = 1,
    limit: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless the sweep's sizes
    are positive (``limit`` may also be ``None``, meaning every class).

    ``python -m repro sweep`` calls it before it builds an executor, so a
    bad flag fails with the same one line with or without
    ``--distributed``.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise ConfigError(f"jobs must be a positive int, got {jobs!r}")
    if n < 1:
        raise ConfigError(f"n must be positive, got {n!r}")
    if budget < 1:
        raise ConfigError(f"budget must be positive, got {budget!r}")
    if limit is not None and limit < 1:
        raise ConfigError(f"limit must be positive, got {limit!r}")


def solvability_sweep(
    n: int = 4,
    *,
    jobs: int = 1,
    limit: int | None = None,
    budget: int = DEFAULT_BUDGET,
    executor=None,
) -> SweepReport:
    """Run (or resume) the exhaustive solvability sweep on ``n`` processes.

    Classes are selected deterministically from densest generator to
    sparsest; ``limit`` takes the first ``K`` classes in that fixed
    order, so incremental runs keep their meaning across invocations.
    Within the selection, *jobs* are scheduled heaviest-first (see
    :func:`plan_sweep`), so distributed workers share the giant classes
    instead of stranding on them.  Resume is per job: rerun the same
    call against the same ``rw`` store, and every bounds or per-``k``
    verdict an earlier (possibly killed) run banked is a store hit, not
    a computation.  ``budget`` caps each class's enumerated model
    exactly like ``search --budget``.  ``executor`` (a
    :class:`repro.dist.DistExecutor`) runs the same plan across every
    connected ``python -m repro worker`` instead, with the coordinator
    persisting each job as it completes — identical results, identical
    resumability.  A failed job raises one
    :class:`~repro.engine.batch.JobError` naming every failed job, once
    every other job has been banked.
    A non-positive ``n``, ``jobs``, ``limit`` or ``budget`` raises
    :class:`~repro.errors.ConfigError` before anything is planned (see
    :func:`check_sweep_values`).
    """
    from ..graphs.generators import iter_all_digraphs
    from ..graphs.symmetry import iter_isomorphism_classes

    check_sweep_values(n, jobs=jobs, limit=limit, budget=budget)
    TRACER.instant("sweep:config", cat="sweep", n=n, budget=budget)

    representatives = sorted(
        iter_isomorphism_classes(iter_all_digraphs(n)),
        key=lambda g: (-g.proper_edge_count, g.out_rows),
    )
    total = len(representatives)
    if limit is not None:
        representatives = representatives[:limit]
    plan = plan_sweep(representatives, n, budget=budget)
    batch = run_batch(list(plan.tasks), jobs=jobs, executor=executor)
    rows: list[list[object]] = []
    class_reports: list[SweepClassReport] = []
    for cls in plan.classes:
        job_results = [batch.results[i] for i in cls.job_indices]
        rows.append(
            reduce_sweep_row(
                tuple(r.value for r in job_results), cls.generator
            )
        )
        class_reports.append(
            SweepClassReport(
                index=cls.index,
                edges=cls.generator.proper_edge_count,
                estimate=cls.estimate,
                subshards=len(cls.job_indices),
                elapsed=sum(r.elapsed for r in job_results),
                # Warm only if *every* job was served from a cache tier:
                # one recomputed verdict means a CSP ran.
                resumed=all(_job_warm(result) for result in job_results),
            )
        )
    return SweepReport(
        n=n,
        headers=sweep_headers(),
        rows=rows,
        total_classes=total,
        sharded=len(representatives),
        batch=batch,
        classes=tuple(class_reports),
    )
