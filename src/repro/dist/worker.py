"""Distributed batch worker: pull jobs over TCP, compute, stream results.

``python -m repro worker --connect HOST:PORT [--jobs N]`` is the CLI
entry point.  Each worker process connects to a coordinator
(:mod:`repro.dist.coordinator`), handshakes, and then loops: request a
job, execute it through the exact same
:func:`~repro.engine.batch.execute_job` primitive as the serial and pool
paths — so the kernel cache and the persistent store tiers behave
identically — and stream the result home together with the job's drained
store rows and cache/store statistics deltas.

Workers never write SQLite.  On startup the process-global store is
switched into *worker mode* (:attr:`repro.store.ResultStore.worker_mode`),
which defers every write: rows queue in memory and ride home inside each
``JobResult``, exactly as a daemonic pool worker's do.  Rows a failed job
computed before it raised stay queued and ride home with the next job's
result (or are recomputed).  Reads still work, so a worker pointed at a
shared (or pre-seeded) store file warm-starts from everything already
computed.

Network warm start: when the coordinator offers seeding (it does when
it has an active store), the handshake is followed by a ``store_seed``
stream — the coordinator's store rows land in this worker's in-memory
seed tier, so a host with an *empty* local store still starts warm.  A
worker with no active store at all gets a throwaway in-memory one
(worker mode, never touching disk) just to host the seed tier and carry
rows home.  The seed tier is read-only; writes still ride home inside
each ``JobResult``.  A lookup that misses the memo, the seed tier and
the local store file computes.

While a job computes, a background thread heartbeats the coordinator at
the interval named in the handshake (a third of the coordinator's lease
timeout), so long CSP shards are not requeued as long as this worker is
alive.  A killed worker drops its connection and its leased job is
requeued at once; a worker that hangs but stays connected loses the job
when its lease runs out.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from .._record import record, replace
from ..engine.batch import JobFailure, execute_job
from ..errors import ConfigError, DistError
from ..obs.trace import TRACER, estimate_clock_offset
from .protocol import PROTOCOL_VERSION, STORE_SEED, recv_message, send_message

__all__ = ["WorkerReport", "run_worker", "run_workers"]


@record
class WorkerReport:
    """What one worker process did before the coordinator released it."""

    worker: str
    completed: int
    failed: int
    elapsed: float
    clean: bool
    """True when the coordinator said ``done``; False when it vanished
    mid-run (the batch may still have finished via other workers)."""

    seeded_rows: int = 0
    """Store rows received from the coordinator's ``store_seed`` stream."""

    def describe(self) -> str:
        status = "done" if self.clean else "coordinator went away"
        text = (
            f"worker {self.worker}: {self.completed} job(s) completed, "
            f"{self.failed} failed, {self.elapsed:.1f}s ({status})"
        )
        if self.seeded_rows:
            text += f"; {self.seeded_rows} store row(s) seeded"
        return text


class _HeartbeatPump(threading.Thread):
    """Send ``heartbeat`` frames for one job while it computes."""

    def __init__(self, sock, send_lock, index: int, interval: float):
        super().__init__(name=f"heartbeat-{index}", daemon=True)
        self._sock = sock
        self._send_lock = send_lock
        self._index = index
        self._interval = max(0.05, interval)
        # NB: not "_stop" — that name is an internal threading.Thread method.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            try:
                with self._send_lock:
                    send_message(self._sock, "heartbeat", {"index": self._index})
            except OSError:
                return  # connection gone; the main loop will notice

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=1.0)


def _connect(host: str, port: int, retry: float) -> socket.socket:
    """Dial the coordinator, retrying until ``retry`` seconds elapse.

    Workers are routinely started *before* the coordinator (CI launches
    them in the background, then runs the sweep), so connection refused is
    an expected transient, not an error — up to the retry budget.
    """
    deadline = time.monotonic() + retry
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise DistError(
                    f"cannot reach coordinator at {host}:{port} "
                    f"after {retry:.0f}s: {exc}"
                ) from exc
            time.sleep(0.1)


def _worker_store():
    """The active store, switched into deferred-write worker mode.

    Exception: when a coordinator is serving from this very process (an
    in-thread worker), the store must keep its write path — the
    coordinator *is* the single writer, and deferring its flushes would
    strand every row in the shared pending buffer.
    """
    from .. import store as store_pkg

    store = store_pkg.active_store()
    if store is not None and not store.coordinator_owned:
        store.worker_mode = True
    return store


def _install_memory_store():
    """Install a throwaway in-memory store to host the seed tier.

    A worker started with ``REPRO_STORE=off`` has no store at all, which
    would waste the coordinator's seed stream.  An in-memory, worker-mode
    store never touches disk (worker mode defers every write; the rows it
    accumulates ride home inside job results exactly like a file-backed
    worker's) but gives the seed tier a place to live.
    Returns the store plus the previous global configuration so
    ``run_worker`` can restore it on exit (in-process callers must not
    keep the throwaway).
    """
    from .. import store as store_pkg

    previous = store_pkg.RESULT_STORE
    restore = (previous.path, previous.mode, previous.batch_size)
    store = store_pkg.configure(path=":memory:", mode="rw")
    store.worker_mode = True
    return store, restore


def _receive_seed(sock: socket.socket, store) -> int:
    """Drain the coordinator's ``store_seed`` stream into the seed tier."""
    seeded = 0
    while True:
        frame = recv_message(sock)
        if frame is None:
            raise DistError("coordinator closed during store seeding")
        kind, payload = frame
        if kind != STORE_SEED or not isinstance(payload, dict):
            raise DistError(f"expected store_seed frame, got {kind!r}")
        seeded += store.import_seed_rows(payload.get("rows") or ())
        if payload.get("done"):
            return seeded


def run_worker(
    host: str,
    port: int,
    *,
    worker_id: str | None = None,
    retry: float = 10.0,
    log=None,
) -> WorkerReport:
    """Serve one coordinator until it reports the batch done.

    Connects (retrying while the coordinator is not up yet), handshakes,
    then pulls and executes jobs until told ``done``.  Returns a summary;
    raises :class:`~repro.errors.DistError` only when the coordinator was
    never reachable or rejects the protocol version — a coordinator that
    vanishes mid-run yields a report with ``clean=False`` instead, since
    by then the batch may have completed without us.
    """
    log = log or (lambda message: None)
    name = worker_id or f"{socket.gethostname()}:{os.getpid()}"
    start = time.monotonic()
    sock = _connect(host, port, retry)
    send_lock = threading.Lock()
    completed = failed = 0
    seeded_rows = 0
    clean = False
    store = _worker_store()
    store_restore = None
    trace_restore = None
    try:
        hello = {
            "version": PROTOCOL_VERSION,
            "worker": name,
            # Lets the coordinator recognise a worker in its own
            # process, whose cache/store activity is already in
            # the live counters and must not be absorbed twice.
            "host": socket.gethostname(),
            "pid": os.getpid(),
        }
        hello_sent = time.time()
        with send_lock:
            send_message(sock, "hello", hello)
        greeting = recv_message(sock)
        welcome_received = time.time()
        if greeting is None:
            raise DistError("coordinator closed during handshake")
        kind, payload = greeting
        if kind == "reject":
            raise DistError(
                f"coordinator rejected worker: {payload.get('reason')}"
            )
        if kind != "welcome" or not isinstance(payload, dict):
            raise DistError(f"unexpected handshake reply {kind!r}")
        heartbeat = float(payload.get("heartbeat") or 20.0)
        seed_enabled = bool((payload.get("seed") or {}).get("enabled"))
        if payload.get("trace"):
            # The coordinator traces, so this worker buffers spans and
            # ships them inside each JobResult — no local environment
            # needed.  The coordinator stamped its wall clock into the
            # welcome; the NTP midpoint estimate aligns this worker's
            # timestamps onto the coordinator's timeline at drain time.
            trace_restore = (TRACER.enabled, TRACER.clock_offset)
            TRACER.enabled = True
            remote_now = payload.get("now")
            if isinstance(remote_now, (int, float)):
                TRACER.clock_offset = estimate_clock_offset(
                    hello_sent, welcome_received, remote_now
                )
            TRACER.instant(
                "dist:handshake", cat="dist", worker=name,
                offset=TRACER.clock_offset,
                rtt=welcome_received - hello_sent,
            )
        if seed_enabled:
            if store is None:
                store, store_restore = _install_memory_store()
            with TRACER.span(
                "dist:seed_receive", cat="dist", worker=name
            ) as sp:
                seeded_rows = _receive_seed(sock, store)
                sp.set(rows=seeded_rows)
            log(f"worker {name}: seeded {seeded_rows} store row(s)")
        log(f"worker {name} serving {payload.get('jobs')} job(s)")

        with send_lock:
            send_message(sock, "next", {})
        while True:
            message = recv_message(sock)
            if message is None:
                return _report(
                    name, completed, failed, start,
                    clean=False, seeded=seeded_rows,
                )
            kind, payload = message
            if kind == "done":
                clean = True
                with send_lock:
                    send_message(sock, "bye", {})
                break
            if kind == "wait":
                time.sleep(float(payload.get("delay", 0.25)))
                with send_lock:
                    send_message(sock, "next", {})
                continue
            if kind != "job":
                raise DistError(f"unexpected frame {kind!r} from coordinator")
            index, job = payload["index"], payload["job"]
            pump = _HeartbeatPump(sock, send_lock, index, heartbeat)
            pump.start()
            try:
                outcome = execute_job(job)
            finally:
                pump.stop()
            if isinstance(outcome, JobFailure):
                failed += 1
                outcome = replace(outcome.sanitized(), index=index)
            else:
                completed += 1
            with send_lock:
                send_message(sock, "result", {"index": index, "outcome": outcome})
    except OSError:
        # Connection torn down mid-run: the coordinator finished or died;
        # either way there is nothing more this worker can contribute.
        return _report(
            name, completed, failed, start, clean=False, seeded=seeded_rows
        )
    finally:
        if trace_restore is not None:
            # In-thread workers (tests, single-host convenience) share the
            # process-global tracer with the coordinator; hand back its
            # previous switch and clock so later batches are unaffected.
            # (Dedicated worker processes exit right after anyway.)
            TRACER.enabled, TRACER.clock_offset = trace_restore
        if store is not None:
            # Dedicated worker processes exit anyway; in-thread workers
            # (tests) share the process-global store and must hand the
            # write path back — and must not keep this batch's seed rows.
            store.worker_mode = False
            store.clear_seed()
        if store_restore is not None:
            # The throwaway in-memory store must not outlive this run in
            # the process-global slot (in-process callers, tests).
            from .. import store as store_pkg

            store_pkg.configure(
                path=store_restore[0],
                mode=store_restore[1],
                batch_size=store_restore[2],
            )
        try:
            sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
    return _report(
        name, completed, failed, start, clean=clean, seeded=seeded_rows
    )


def _report(
    name: str,
    completed: int,
    failed: int,
    start: float,
    *,
    clean: bool,
    seeded: int = 0,
) -> WorkerReport:
    return WorkerReport(
        worker=name,
        completed=completed,
        failed=failed,
        elapsed=time.monotonic() - start,
        clean=clean,
        seeded_rows=seeded,
    )


def _worker_process(host, port, worker_id, retry, queue) -> None:
    """Entry point of a forked worker process (``--jobs N``)."""
    try:
        report = run_worker(host, port, worker_id=worker_id, retry=retry)
        queue.put(report)
    except Exception as exc:
        queue.put(DistError(str(exc)))


def run_workers(
    host: str,
    port: int,
    *,
    jobs: int = 1,
    retry: float = 10.0,
    log=None,
) -> list[WorkerReport]:
    """Run ``jobs`` worker processes against one coordinator.

    ``jobs=1`` serves in-process (the reference path); larger values fork
    independent worker processes, each with its own connection and its own
    kernel cache, exactly as if ``python -m repro worker`` had been
    launched ``jobs`` times.  Raises :class:`~repro.errors.ConfigError`
    unless ``jobs`` is a positive int, and
    :class:`~repro.errors.DistError` if any worker failed outright
    (unreachable coordinator, bad version).
    """
    import multiprocessing

    if not isinstance(jobs, int) or jobs < 1:
        raise ConfigError(f"jobs must be a positive int, got {jobs!r}")
    if jobs == 1:
        return [run_worker(host, port, retry=retry, log=log)]
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        context = multiprocessing.get_context()
    queue = context.Queue()
    base = f"{socket.gethostname()}:{os.getpid()}"
    processes = [
        context.Process(
            target=_worker_process,
            args=(host, port, f"{base}.{rank}", retry, queue),
            daemon=False,
        )
        for rank in range(jobs)
    ]
    for process in processes:
        process.start()
    from queue import Empty

    reports: list[WorkerReport] = []
    errors: list[DistError] = []
    collected = 0
    drained_after_death = False
    while collected < len(processes):
        try:
            item = queue.get(timeout=1.0)
        except Empty:
            if all(not p.is_alive() for p in processes):
                if drained_after_death:
                    break  # children gone and the queue is truly dry
                drained_after_death = True  # one more pass for in-flight puts
            continue
        collected += 1
        if isinstance(item, DistError):
            errors.append(item)
        else:
            reports.append(item)
    for process in processes:
        process.join()
    missing = len(processes) - collected
    if missing:
        # A child that dies without reporting (OOM-killed, segfault) must
        # not look like a clean exit: its capacity silently vanished even
        # though the coordinator requeued its job elsewhere.
        errors.append(
            DistError(
                f"{missing} worker process(es) died without reporting "
                "(killed?)"
            )
        )
    if errors:
        raise errors[0]
    return reports
