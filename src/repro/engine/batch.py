"""Batch driver: run experiment jobs serially or over one host's cores.

A :class:`Job` names a picklable top-level callable plus its arguments;
:func:`run_batch` executes a sequence of jobs either serially (``jobs=1``,
the reference path) or on a ``multiprocessing`` pool, returning values in
submission order together with per-job timings and merged kernel-cache
statistics.  The two paths are observationally identical: jobs must be
independent pure computations, so the only difference is wall-clock.
Passing a :class:`repro.dist.DistExecutor` as ``executor=`` runs the same
jobs on a TCP work queue spanning hosts, with the same results.

Worker caches: on fork-capable platforms every worker inherits the
parent's warm :data:`~repro.engine.cache.KERNEL_CACHE` at fork time.
Each job ships its cache-stats delta back with its result, and the parent
absorbs the deltas so global statistics reflect work done everywhere.

Persistent store merge: when the result store (:mod:`repro.store`) is in
``rw`` mode, every job also ships back the store *rows* it queued (its
write delta) and its store-stats delta.  Only the parent process ever
writes to SQLite: :func:`land_outcome` absorbs each job's rows as that
job completes — completions stream back unordered, so a run killed
midway has already persisted every finished job, which is what makes
sharded sweeps resumable.  The distributed coordinator calls the same
function in the parent role.

Failures: every job runs to completion regardless of earlier failures,
and each failure is recorded as a :class:`JobFailure` naming the job that
raised.  The batch then raises a single :class:`JobError` enumerating
*all* failed jobs, after every success has been banked.

Nested batches degrade gracefully: pool workers are daemonic and cannot
spawn their own pools, so a ``run_batch`` call inside a worker silently
runs serially instead of crashing.

``multiprocessing`` is imported by the pool path and the daemon check
only, so a serial batch does not load it.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping, Sequence

from .._record import factory, record, replace
from ..errors import ConfigError, EngineError
from ..obs.trace import TRACER
from .cache import KERNEL_CACHE, CacheStats

__all__ = [
    "Job",
    "JobResult",
    "JobFailure",
    "JobError",
    "BatchResult",
    "run_batch",
    "describe_dist_metrics",
    "execute_job",
    "finalize_outcomes",
    "land_outcome",
    "worker_row",
]


@record
class Job:
    """One unit of batch work: ``fn(*args, **kwargs)``.

    ``fn`` must be an importable module-level callable (pool and remote
    workers receive jobs by pickling) and, like every cached kernel, must
    be a pure function of its arguments.
    """

    name: str
    fn: Callable
    args: tuple = ()
    kwargs: Mapping = factory(dict)

    def run(self) -> object:
        return self.fn(*self.args, **dict(self.kwargs))


@record
class JobResult:
    """A job's value plus its observability payload."""

    name: str
    value: object
    elapsed: float
    stats: CacheStats
    """Kernel-cache activity attributable to this job alone."""

    store_stats: object = None
    """Store-tier activity attributable to this job (``StoreStats`` or
    ``None`` when the persistent store was off)."""

    store_rows: tuple = ()
    """Pending store rows this job produced; drained from the executing
    process so the batch parent is the only SQLite writer."""

    worker: str = ""
    """Lane label (``host:pid``) of the process that executed this job —
    per-worker attribution for pool metrics and trace summaries."""

    trace_events: tuple = ()
    """Trace spans drained from the executing process, shipped home like
    ``store_rows`` so the batch parent (or dist coordinator) stays the
    trace file's only writer.  Empty unless tracing is enabled."""


@record
class JobFailure:
    """One failed job: the name that raised plus the failure detail.

    ``cause`` carries the original exception when it is available in this
    process (serial path, pool workers); remote workers ship ``None`` with
    the formatted ``traceback`` instead, since arbitrary exceptions do not
    survive the wire.
    """

    name: str
    message: str
    index: int = -1
    """Submission index of the failed job (-1 when unknown)."""
    traceback: str | None = None
    cause: BaseException | None = None
    worker: str = ""
    """Lane label (``host:pid``) of the process the job failed in."""

    def sanitized(self) -> "JobFailure":
        """A copy safe to pickle across hosts (exception object dropped)."""
        tb = self.traceback
        if tb is None and self.cause is not None:
            import traceback

            tb = "".join(
                traceback.format_exception(
                    type(self.cause), self.cause, self.cause.__traceback__
                )
            )
        return replace(self, cause=None, traceback=tb)


class JobError(EngineError):
    """One or more batch jobs raised.

    ``failures`` lists every :class:`JobFailure` of the batch (not just the
    first), so multi-failure batches are fully diagnosable from the single
    exception; the first failure's original exception is chained as cause.
    """

    def __init__(
        self, failures: Sequence[JobFailure] | JobFailure, message: str | None = None
    ):
        if isinstance(failures, JobFailure):
            failures = (failures,)
        failures = tuple(failures)
        if not failures:
            raise ValueError("JobError needs at least one failure")
        first = failures[0]
        if message is None:
            message = f"job {first.name!r} failed: {first.message}"
            if len(failures) > 1:
                others = ", ".join(repr(f.name) for f in failures[1:])
                message += (
                    f" (+{len(failures) - 1} more failed job(s): {others})"
                )
        super().__init__(message)
        self.failures = failures
        self.job_name = first.name


@record
class BatchResult:
    """All job results in submission order, plus merged statistics."""

    results: tuple[JobResult, ...]
    stats: CacheStats
    jobs: int
    """Worker processes actually used (1 = serial reference path; for the
    distributed executor, the number of distinct workers that served)."""

    store_stats: object = None
    """Merged store-tier activity (``StoreStats``), ``None`` if off."""

    dist_metrics: Mapping | None = None
    """Per-worker metrics (throughput, busy and idle time, rows seeded)
    plus the requeue counter: the coordinator's on a distributed batch,
    the same shape built from the job lanes on a pool batch, and
    ``None`` on the serial path."""

    @property
    def values(self) -> tuple[object, ...]:
        return tuple(r.value for r in self.results)

    @property
    def elapsed(self) -> float:
        """Total compute time summed over jobs (not wall-clock)."""
        return sum(r.elapsed for r in self.results)


def _active_store():
    from .. import store as result_store

    return result_store.active_store()


def describe_dist_metrics(metrics: Mapping) -> str:
    """Human-readable rendering of the dist counters and per-worker rows.

    ``metrics`` is a :attr:`BatchResult.dist_metrics` (pool or
    coordinator) or a coordinator's ``status_snapshot()``, which carries
    the same keys.  The one formatter behind the sweep and experiment
    footers and ``dist status``, so the accounting reads the same
    everywhere it surfaces.
    """
    lines = [
        f"dist: {metrics['rows_seeded']} row(s) seeded, "
        f"{metrics['requeues']} requeue(s)"
    ]
    for worker in metrics.get("workers", ()):
        lines.append(
            f"  worker {worker['worker']}: {worker['completed']} done, "
            f"{worker['failed']} failed, "
            f"{worker['jobs_per_minute']:.1f} jobs/min, "
            f"{worker['seeded_rows']} seeded, "
            f"idle {worker['idle']:.1f}s"
        )
    return "\n".join(lines)


def worker_row(
    worker: str,
    completed: int,
    failed: int,
    busy: float,
    wall: float,
    seeded_rows: int = 0,
) -> dict:
    """One per-worker row of :attr:`BatchResult.dist_metrics`.

    ``busy`` is the summed ``elapsed`` of the worker's completed jobs and
    ``wall`` the time it was available (the pool batch's wall clock, or
    a dist worker's connection lifetime).  ``elapsed`` is the busy time,
    ``jobs_per_minute`` completions per busy minute and ``idle`` the
    available time spent not computing, as ``trace summary`` reports per
    lane — so pool and cluster rows mean the same thing.
    """
    return {
        "worker": worker,
        "completed": completed,
        "failed": failed,
        "seeded_rows": seeded_rows,
        "elapsed": busy,
        "jobs_per_minute": 60.0 * completed / busy if busy > 0 else 0.0,
        "idle": max(wall - busy, 0.0),
    }


def _pool_metrics(outcomes, wall: float) -> dict:
    """Per-worker-process metrics for a pool batch, dist-metrics shaped.

    Built from the ``worker`` lane of each outcome, so the pool path
    fills :attr:`BatchResult.dist_metrics` in exactly the coordinator's
    shape; the seeding counters are present but zero (pool workers share
    the parent's filesystem and never seed).  A batch with a failed job
    raises before its metrics are built, so every row has 0 failed.
    """
    lanes: dict[str, list] = {}  # lane -> [completed, busy]
    for outcome in outcomes:
        info = lanes.setdefault(outcome.worker or "?", [0, 0.0])
        info[0] += 1
        info[1] += outcome.elapsed
    return {
        "requeues": 0,
        "rows_seeded": 0,
        "workers": [
            worker_row(lane, completed, 0, busy, wall)
            for lane, (completed, busy) in sorted(lanes.items())
        ],
    }


def _execute_indexed(
    item: tuple[int, Job]
) -> tuple[int, JobResult | JobFailure]:
    """Run one job, keeping its submission index with the outcome so the
    pool parent can consume completions out of order and reorder at the
    end (the serial path uses it too)."""
    index, job = item
    outcome = execute_job(job)
    if isinstance(outcome, JobFailure):
        outcome = replace(outcome, index=index)
    return index, outcome


def execute_job(job: Job) -> JobResult | JobFailure:
    """Run one job, measuring wall time and the cache/store deltas.

    This is the single execution primitive shared by the serial path, the
    pool workers, and the remote workers of :mod:`repro.dist`: whatever
    process calls it, the returned payload carries everything the batch
    parent needs (value, timings, cache delta, drained store rows).
    """
    store = _active_store()
    lane = TRACER.lane()
    before = KERNEL_CACHE.stats()
    store_before = store.stats() if store is not None else None
    start = time.perf_counter()
    try:
        with TRACER.span(f"job:{job.name}", cat="job"):
            value = job.run()
    except Exception as exc:
        # Converted to JobError by the parent; KeyboardInterrupt/SystemExit
        # propagate so Ctrl-C keeps its semantics on the serial path.
        return JobFailure(
            name=job.name,
            message=f"{type(exc).__name__}: {exc}",
            cause=exc,
            worker=lane,
        )
    elapsed = time.perf_counter() - start
    delta = KERNEL_CACHE.stats().delta_since(before)
    store_delta = None
    store_rows: tuple = ()
    if store is not None:
        store_delta = store.stats().delta_since(store_before)
        store_rows = store.drain_pending()
    # Drain *everything* buffered, not just this job's spans: stray
    # events recorded between jobs (handshakes, seed streams) ride home
    # with the next result instead of lingering in the worker.
    trace_events = TRACER.drain() if TRACER.enabled else ()
    return JobResult(
        name=job.name,
        value=value,
        elapsed=elapsed,
        stats=delta,
        store_stats=store_delta,
        store_rows=store_rows,
        worker=lane,
        trace_events=trace_events,
    )


def land_outcome(outcome: JobResult | JobFailure, store) -> None:
    """Bank one finished job in the process that owns the writes.

    The single-writer landing shared by :func:`run_batch` and the
    distributed coordinator: the one process allowed to write SQLite
    absorbs the job's trace spans and store rows, then flushes — the
    moment the outcome arrives, so a run killed later has already banked
    every job finished by then.  A failure banks nothing.
    """
    if not isinstance(outcome, JobResult):
        return
    # From pool and remote workers this is the only way spans reach the
    # (single-writer) trace buffer; re-absorbing this process's own
    # drained spans (serial path) is a harmless round trip.
    TRACER.absorb(outcome.trace_events)
    if store is not None and outcome.store_rows:
        store.absorb_rows(outcome.store_rows)
        store.flush()


def finalize_outcomes(
    outcomes: Sequence[JobResult | JobFailure], *, workers: int
) -> BatchResult:
    """Merge per-job outcomes into a :class:`BatchResult`.

    Shared by :func:`run_batch` and the distributed coordinator: folds the
    per-job cache/store deltas together and raises one :class:`JobError`
    naming every :class:`JobFailure`.  Each caller folds the deltas of
    jobs that ran in *other* processes into this process's statistics
    itself, since only it knows which jobs those were.
    """
    results: list[JobResult] = []
    failures: list[JobFailure] = []
    merged = CacheStats()
    merged_store = None
    for outcome in outcomes:
        if isinstance(outcome, JobFailure):
            failures.append(outcome)
            continue
        results.append(outcome)
        merged = merged.merge(outcome.stats)
        if outcome.store_stats is not None:
            merged_store = (
                outcome.store_stats
                if merged_store is None
                else merged_store.merge(outcome.store_stats)
            )
    if failures:
        raise JobError(failures) from failures[0].cause
    return BatchResult(
        results=tuple(results),
        stats=merged,
        jobs=workers,
        store_stats=merged_store,
    )


def _in_daemon_process() -> bool:
    import multiprocessing

    return multiprocessing.current_process().daemon


def run_batch(
    tasks: Sequence[Job],
    /,
    *,
    jobs: int = 1,
    executor=None,
) -> BatchResult:
    """Execute ``tasks`` and return their results in submission order.

    Parameters
    ----------
    tasks:
        The jobs to run.  Results are returned positionally.  Failing jobs
        never stop the batch: every job runs, successful work is absorbed
        into cache/store state (resumable sweeps rely on this), and only
        then does one :class:`JobError` name every failed job.
    jobs:
        Worker process count.  ``1`` (default) runs serially in-process —
        the reference path the parallel path must match exactly.  Values
        above the number of jobs are clamped; inside an existing worker
        the call degrades to serial.
    executor:
        Optional :class:`repro.dist.DistExecutor`; when given, the batch
        runs on the workers its coordinator serves, across hosts, with
        identical results (``jobs`` is still checked, then unused).
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise ConfigError(f"jobs must be a positive int, got {jobs!r}")
    if executor is not None:
        return executor.run(tasks)
    tasks = list(tasks)
    store = _active_store()
    if store is not None:
        # Persist (or at least re-own) anything already pending so forked
        # workers start with an empty write buffer and the per-job drains
        # attribute rows to the jobs that actually produced them.
        store.flush()

    outcomes: list[JobResult | JobFailure | None] = [None] * len(tasks)

    def _land(index: int, outcome: JobResult | JobFailure) -> None:
        land_outcome(outcome, store)
        outcomes[index] = outcome

    workers = min(jobs, len(tasks))
    if workers <= 1 or _in_daemon_process():
        workers = 1
        for item in enumerate(tasks):
            _land(*_execute_indexed(item))
    else:
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            context = multiprocessing.get_context()
        pool_start = time.perf_counter()
        with context.Pool(processes=workers) as pool:
            # imap_unordered (not map): completions stream back as they
            # finish, so the parent persists each one immediately even
            # while a slow job holds up earlier submission slots.
            for index, outcome in pool.imap_unordered(
                _execute_indexed, enumerate(tasks)
            ):
                _land(index, outcome)
                if isinstance(outcome, JobResult):
                    # The worker counted this job in its own copy of the
                    # statistics; fold it into this process's totals.
                    KERNEL_CACHE.absorb(outcome.stats)
                    if store is not None and outcome.store_stats is not None:
                        store.absorb_stats(outcome.store_stats)
    result = finalize_outcomes(outcomes, workers=workers)
    if workers > 1:
        # Pool runs fill dist_metrics in the coordinator's shape so
        # the footers render uniformly (serial stays None: one
        # process, nothing worth a per-worker breakdown).
        result = replace(
            result,
            dist_metrics=_pool_metrics(
                outcomes, time.perf_counter() - pool_start
            ),
        )
    return result
