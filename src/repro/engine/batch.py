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

Two-phase plans: a batch may carry :class:`Reduction`\\ s — phase-2 jobs
that fold the values of named phase-1 jobs into one result.  Reductions
fire *as each group's last input lands* (no barrier between phases) and
always execute in the batch parent — the store-writing process — so a
reduction may bank derived rows without touching the single-writer
invariant.  The sweeps use this to plan every class as a bounds job plus
one job per candidate ``k``, whose verdicts a pure reducer folds into
the class's table row.

Failures: every job runs to completion regardless of earlier failures,
and each failure is recorded as a :class:`JobFailure` naming the job that
raised.  ``on_error="raise"`` (the default) then raises a single
:class:`JobError` enumerating *all* failed jobs; ``on_error="collect"``
instead returns the failures on ``BatchResult.failures`` so sweep-style
callers can bank the successes and retry the rest.

Nested batches degrade gracefully: pool workers are daemonic and cannot
spawn their own pools, so a ``run_batch`` call inside a worker silently
runs serially instead of crashing.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback as _traceback
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, replace

from ..errors import ConfigError, EngineError
from ..obs.trace import TRACER
from .cache import KERNEL_CACHE, CacheStats

__all__ = [
    "Job",
    "JobResult",
    "JobFailure",
    "JobError",
    "BatchResult",
    "Reduction",
    "run_batch",
    "describe_dist_metrics",
    "execute_job",
    "fire_reduction",
    "finalize_outcomes",
    "land_outcome",
    "worker_row",
]


@dataclass(frozen=True)
class Job:
    """One unit of batch work: ``fn(*args, **kwargs)``.

    ``fn`` must be an importable module-level callable (pool and remote
    workers receive jobs by pickling) and, like every cached kernel, must
    be a pure function of its arguments.
    """

    name: str
    fn: Callable
    args: tuple = ()
    kwargs: Mapping = field(default_factory=dict)

    def run(self) -> object:
        return self.fn(*self.args, **dict(self.kwargs))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Reduction:
    """A phase-2 job: fold the values of earlier jobs into one result.

    ``fn`` is called as ``fn(values, *args, **kwargs)`` where ``values``
    are the ``over`` jobs' return values in ``over`` order.  Like every
    job it must be a pure function of its inputs — but unlike phase-1
    jobs it always runs in the batch parent (serial driver, pool parent,
    or distributed coordinator), the moment the last ``over`` job's
    result lands.  There is no barrier: with several reductions in
    flight, each fires independently of the others' progress, so a slow
    group never delays a finished one.

    If any ``over`` job failed, the reduction is not executed and is
    recorded as a :class:`JobFailure` naming the failed inputs.
    """

    name: str
    fn: Callable
    over: tuple[int, ...]
    """Submission indices of the phase-1 jobs this reduction consumes."""
    args: tuple = ()
    kwargs: Mapping = field(default_factory=dict)


@dataclass(frozen=True)
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
            tb = "".join(
                _traceback.format_exception(
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


@dataclass(frozen=True)
class BatchResult:
    """All job results in submission order, plus merged statistics."""

    results: tuple[JobResult, ...]
    stats: CacheStats
    jobs: int
    """Worker processes actually used (1 = serial reference path; for the
    distributed executor, the number of distinct workers that served)."""

    store_stats: object = None
    """Merged store-tier activity (``StoreStats``), ``None`` if off."""

    failures: tuple[JobFailure, ...] = ()
    """Failed jobs, by name and submission index (``on_error="collect"``);
    always empty on the default raising path."""

    reduction_results: tuple[JobResult | None, ...] = ()
    """Phase-2 results, positionally aligned with the submitted
    :class:`Reduction` list: slot ``i`` is reduction ``i``'s result, or
    ``None`` when that reduction failed or was skipped over failed
    inputs (``on_error="collect"`` — the failure itself lands on
    ``failures``).  On the default raising path every slot is a
    :class:`JobResult`."""

    dist_metrics: Mapping | None = None
    """Per-worker metrics (throughput, busy and idle time, rows seeded)
    plus the requeue and replay counters: the coordinator's on a
    distributed batch, the same shape built from the job lanes on a
    pool batch, and ``None`` on the serial path."""

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
    replayed = metrics.get("replayed", 0)
    if replayed:
        lines[0] += f", {replayed} replayed"
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

    Built from each outcome's ``worker`` lane so the pool path fills
    :attr:`BatchResult.dist_metrics` in exactly the coordinator's shape
    (the seeding counters are present but zero — pool workers share the
    parent's filesystem and never seed).
    """
    lanes: dict[str, list] = {}  # lane -> [completed, failed, busy]
    for outcome in outcomes:
        lane = getattr(outcome, "worker", "") or "?"
        info = lanes.setdefault(lane, [0, 0, 0.0])
        if isinstance(outcome, JobFailure):
            info[1] += 1
        else:
            info[0] += 1
            info[2] += outcome.elapsed
    return {
        "requeues": 0,
        "replayed": 0,
        "rows_seeded": 0,
        "workers": [
            worker_row(lane, *lanes[lane], wall) for lane in sorted(lanes)
        ],
    }


def _execute_indexed(
    item: tuple[int, Job]
) -> tuple[int, JobResult | JobFailure]:
    """Run one job, keeping its submission index with the outcome so the
    pool parent can consume completions out of order and reorder at the
    end (the serial path and checkpoint replays use it too)."""
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
    # drained spans (serial path, reductions) is a harmless round trip.
    TRACER.absorb(outcome.trace_events)
    if store is not None and outcome.store_rows:
        store.absorb_rows(outcome.store_rows)
        store.flush()


class _ReductionState:
    """Track which reductions become ready as phase-1 outcomes land.

    Validation happens up front (indices in range, no empty or duplicate
    ``over``), so a malformed plan fails before any job runs.  Callers
    serialise access themselves: :func:`run_batch` is single-threaded in
    the parent, and the distributed coordinator calls ``ready_after``
    under its queue lock.
    """

    def __init__(self, task_count: int, reductions: Sequence[Reduction]):
        self.reductions = tuple(reductions)
        self.outcomes: list[JobResult | JobFailure | None] = [None] * len(
            self.reductions
        )
        self._remaining: list[int] = []
        self._by_index: dict[int, list[int]] = {}
        for rid, reduction in enumerate(self.reductions):
            over = tuple(reduction.over)
            if not over:
                raise EngineError(
                    f"reduction {reduction.name!r} consumes no jobs"
                )
            if len(set(over)) != len(over):
                raise EngineError(
                    f"reduction {reduction.name!r} lists a job twice"
                )
            for index in over:
                if not 0 <= index < task_count:
                    raise EngineError(
                        f"reduction {reduction.name!r} consumes job index "
                        f"{index}, but the batch has {task_count} job(s)"
                    )
                self._by_index.setdefault(index, []).append(rid)
            self._remaining.append(len(over))

    def ready_after(self, index: int) -> list[int]:
        """Reduction ids whose last input is the job at ``index``."""
        ready = []
        for rid in self._by_index.get(index, ()):
            self._remaining[rid] -= 1
            if self._remaining[rid] == 0:
                ready.append(rid)
        return ready


def fire_reduction(
    reduction: Reduction, inputs: Sequence[JobResult | JobFailure]
) -> JobResult | JobFailure:
    """Execute one ready reduction over its collected input outcomes.

    Runs in the calling (parent) process via :func:`execute_job`, so the
    returned payload carries the reduction's own timings, cache/store
    deltas and drained store rows exactly like a phase-1 job's.  If any
    input failed, the reduction is skipped and reported as a
    :class:`JobFailure` naming the failed inputs.
    """
    failed = [o for o in inputs if isinstance(o, JobFailure)]
    if failed:
        names = ", ".join(repr(f.name) for f in failed)
        return JobFailure(
            name=reduction.name,
            message=f"not reduced: input job(s) failed: {names}",
        )
    job = Job(
        name=reduction.name,
        fn=reduction.fn,
        args=(tuple(o.value for o in inputs), *reduction.args),
        kwargs=reduction.kwargs,
    )
    return execute_job(job)


def finalize_outcomes(
    outcomes: Sequence[JobResult | JobFailure],
    *,
    workers: int,
    store,
    on_error: str = "raise",
    absorb: bool | None = None,
    reduction_outcomes: Sequence[JobResult | JobFailure] = (),
) -> BatchResult:
    """Merge per-job outcomes into a :class:`BatchResult`.

    Shared by :func:`run_batch` and the distributed coordinator: folds the
    per-job cache/store deltas together, absorbs them into this process's
    cache and store statistics when the work happened elsewhere
    (``absorb``, defaulting to ``workers > 1``), and applies the
    ``on_error`` policy to any :class:`JobFailure` outcomes.

    ``reduction_outcomes`` are the already-fired phase-2 outcomes in
    reduction submission order.  Reductions always ran in *this* process,
    so their deltas are merged into the returned statistics but never
    absorbed (the live counters already saw them) — exactly the serial
    path's accounting.
    """
    if on_error not in ("raise", "collect"):
        raise EngineError(
            f"on_error must be 'raise' or 'collect', got {on_error!r}"
        )
    results: list[JobResult] = []
    failures: list[JobFailure] = []
    merged = CacheStats()
    merged_store = None
    for outcome in outcomes:
        if isinstance(outcome, JobFailure):
            failures.append(outcome)
            continue
        assert outcome is not None
        results.append(outcome)
        merged = merged.merge(outcome.stats)
        if outcome.store_stats is not None:
            merged_store = (
                outcome.store_stats
                if merged_store is None
                else merged_store.merge(outcome.store_stats)
            )
    if absorb is None:
        absorb = workers > 1
    if absorb:
        # Worker processes mutated their own cache copies; fold their
        # statistics into the parent so cache-stats reports see them.
        # (Reduction deltas are parent-local and excluded on purpose.)
        KERNEL_CACHE.absorb(merged)
        if store is not None and merged_store is not None:
            store.absorb_stats(merged_store)
    # Keep positional alignment with the submitted reduction list: a
    # failed (or input-starved) reduction leaves a None slot, so
    # collect-mode callers can still index results by reduction id.
    reduction_results: list[JobResult | None] = []
    for outcome in reduction_outcomes:
        if outcome is None or isinstance(outcome, JobFailure):
            if isinstance(outcome, JobFailure):
                failures.append(outcome)
            reduction_results.append(None)
            continue
        reduction_results.append(outcome)
        merged = merged.merge(outcome.stats)
        if outcome.store_stats is not None:
            merged_store = (
                outcome.store_stats
                if merged_store is None
                else merged_store.merge(outcome.store_stats)
            )
    if failures and on_error == "raise":
        error = JobError(failures)
        raise error from failures[0].cause
    return BatchResult(
        results=tuple(results),
        stats=merged,
        jobs=workers,
        store_stats=merged_store,
        failures=tuple(failures),
        reduction_results=tuple(reduction_results),
    )


def _in_daemon_process() -> bool:
    return multiprocessing.current_process().daemon


def run_batch(
    tasks: Sequence[Job],
    /,
    *,
    jobs: int = 1,
    on_error: str = "raise",
    executor=None,
    reductions: Sequence[Reduction] = (),
    completed=(),
    checkpoint=None,
) -> BatchResult:
    """Execute ``tasks`` and return their results in submission order.

    Parameters
    ----------
    tasks:
        The jobs to run.  Results are returned positionally.  Failing jobs
        never stop the batch: every job runs, successful work is absorbed
        into cache/store state (resumable sweeps rely on this), and only
        then is the ``on_error`` policy applied.
    jobs:
        Worker process count.  ``1`` (default) runs serially in-process —
        the reference path the parallel path must match exactly.  Values
        above the task count are clamped; inside an existing worker the
        call degrades to serial.
    on_error:
        ``"raise"`` (default) raises one :class:`JobError` enumerating
        every failed job; ``"collect"`` returns them on
        ``BatchResult.failures`` instead.
    executor:
        Optional :class:`repro.dist.DistExecutor`; when given, the batch
        runs on the workers its coordinator serves, across hosts, with
        identical results (``jobs`` is still checked, then unused).
    reductions:
        Optional phase-2 plan: each :class:`Reduction` fires in this
        process the moment the last of its ``over`` jobs completes —
        streaming, no barrier — and its store writes are persisted
        immediately like any job's.  Results land on
        ``BatchResult.reduction_results`` in reduction order.
    completed:
        Submission indices already completed by a previous (interrupted)
        run of the same task list.  These jobs are *replayed in the
        parent* rather than dispatched to workers: against the warm
        store that banked them they are pure hits, so reductions and
        result assembly see real outcomes while no kernel recomputes
        and no worker round trip happens.
    checkpoint:
        Optional :class:`repro.dist.checkpoint.CheckpointWriter`; each
        successful completion is recorded (throttled) so a crash leaves
        a resumable snapshot, and the final state is flushed when the
        batch finishes.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise ConfigError(f"jobs must be a positive int, got {jobs!r}")
    if executor is not None:
        return executor.run(
            tasks,
            on_error=on_error,
            reductions=reductions,
            completed=completed,
            checkpoint=checkpoint,
        )
    tasks = list(tasks)
    completed_set = frozenset(completed)
    for index in completed_set:
        if not 0 <= index < len(tasks):
            raise EngineError(
                f"completed index {index} out of range for "
                f"{len(tasks)} task(s)"
            )
    workers = min(jobs, len(tasks))
    batch_start = time.perf_counter()
    plan = _ReductionState(len(tasks), reductions)
    store = _active_store()
    if store is not None:
        # Persist (or at least re-own) anything already pending so forked
        # workers start with an empty write buffer and the per-job drains
        # attribute rows to the jobs that actually produced them.
        store.flush()

    outcomes: list[JobResult | JobFailure | None] = [None] * len(tasks)

    def _land(index: int, outcome: JobResult | JobFailure) -> None:
        """Record one completion and fire any reduction it unblocks."""
        land_outcome(outcome, store)
        outcomes[index] = outcome
        if checkpoint is not None and isinstance(outcome, JobResult):
            checkpoint.record_done(tasks[index].name)
        for rid in plan.ready_after(index):
            reduction = plan.reductions[rid]
            fired = fire_reduction(
                reduction, [outcomes[i] for i in reduction.over]
            )
            land_outcome(fired, store)
            plan.outcomes[rid] = fired

    # Checkpoint-completed jobs re-land in the parent first.  The warm
    # store that banked them answers every kernel, so this is accounting
    # (values for reductions, rows for assembly), not recomputation — and
    # remaining work never waits on it because replays are the cheapest
    # jobs in the batch by construction.
    for index in sorted(completed_set):
        _land(*_execute_indexed((index, tasks[index])))
    remaining = [
        (index, job)
        for index, job in enumerate(tasks)
        if index not in completed_set
    ]
    if workers <= 1 or _in_daemon_process():
        workers = 1
        for item in remaining:
            _land(*_execute_indexed(item))
    else:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            context = multiprocessing.get_context()
        with context.Pool(processes=workers) as pool:
            # imap_unordered (not map): completions stream back as they
            # finish, so the parent persists each one immediately even
            # while a slow job holds up earlier submission slots — and
            # reductions fire mid-batch, as soon as their group is in.
            for index, outcome in pool.imap_unordered(
                _execute_indexed, remaining
            ):
                _land(index, outcome)
    if checkpoint is not None:
        checkpoint.flush()
    landed = [o for o in outcomes if o is not None]
    result = finalize_outcomes(
        landed,
        workers=workers,
        store=store,
        on_error=on_error,
        reduction_outcomes=plan.outcomes,
    )
    if workers > 1:
        # Pool runs fill dist_metrics in the coordinator's shape so
        # the footers render uniformly (serial stays None: one
        # process, nothing worth a per-worker breakdown).
        result = replace(
            result,
            dist_metrics=_pool_metrics(
                landed, time.perf_counter() - batch_start
            ),
        )
    return result
