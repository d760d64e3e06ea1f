"""TCP work-queue coordinator: the parent side of a distributed batch.

The coordinator owns a batch of :class:`~repro.engine.batch.Job`\\ s and
serves them, one at a time, to any worker that connects
(``python -m repro worker --connect HOST:PORT``).  Semantically it plays
exactly the role the parent process plays under
:func:`~repro.engine.batch.run_batch`:

* it is the **only SQLite writer** — each job result arrives with the
  worker's drained store rows, and the coordinator absorbs and flushes
  them the moment the result lands, so a run killed at any point (worker
  or coordinator) has already persisted every finished job;
* it merges every worker's cache/store statistics deltas into this
  process's totals, so ``cache-stats`` and experiment footers observe the
  whole cluster's work;
* results are collected by submission index and finalized through the
  same :func:`~repro.engine.batch.finalize_outcomes` path as the serial
  and pool drivers, which is what pins serial == pool == dist.

Delivery is at-least-once: a job leased to a worker whose connection
drops is requeued at once, and one whose worker stays connected but
sends no heartbeat for ``lease_timeout`` seconds is requeued when its
lease runs out.  Every lease is ``lease_timeout`` long and each
heartbeat renews it.  Jobs are pure and results content-addressed, so
replays are harmless — the first result for an index wins and late
duplicates are dropped.

Scheduling is FIFO over the submitted task list, so submission order *is*
priority order: the sweep planner exploits this by emitting its jobs
heaviest-first (estimated cost descending), which keeps every worker busy
on the expensive tail instead of stranding one worker on a giant class
while the rest drain trivia.

Concurrency model: one ``selectors``-based event loop thread multiplexes
every connection — worker frames, status probes and seed streaming —
over non-blocking sockets with per-connection read/write buffers.  Lease
expiry rides the loop's select timeout.  All queue state transitions
happen under one lock, which the snapshot/probe surface shares.

Lifecycle: one batch.  The coordinator serves its task list until the
queue drains, then tells the workers ``done``.
"""

from __future__ import annotations

import os
import selectors
import socket
import threading
import time
from collections import deque
from collections.abc import Callable, Sequence

from .._record import replace
from ..engine.batch import (
    BatchResult,
    Job,
    JobFailure,
    JobResult,
    finalize_outcomes,
    land_outcome,
    worker_row,
)
from ..engine.cache import KERNEL_CACHE, CacheStats
from ..errors import DistError
from ..obs.trace import TRACER
from .protocol import (
    DIST_STATUS,
    DIST_STATUS_REPLY,
    MAX_FRAME,
    PROTOCOL_VERSION,
    STORE_SEED,
    ProtocolError,
    _HEADER,
    decode_message,
    encode_message,
)

__all__ = ["Coordinator"]

#: Seed streaming back-pressure: the loop tops a connection's write
#: buffer up with more seed chunks only while it holds less than this.
_SEED_LOW_WATER = 1 << 18

#: Seconds a post-``done`` connection may take to deliver its farewell
#: ``bye`` before being closed anyway (wedged worker).
_FAREWELL_GRACE = 5.0

#: Seconds :meth:`Coordinator.close` lets in-flight farewells and write
#: buffers finish before force-closing every connection.
_CLOSE_GRACE = 1.5


class _Lease:
    """One outstanding job assignment: who holds it, and until when."""

    __slots__ = ("owner", "deadline")

    def __init__(self, owner: int, deadline: float) -> None:
        self.owner = owner
        self.deadline = deadline


class _WorkerInfo:
    """Per-worker accounting behind the ``dist status`` probe.

    ``busy`` is the summed ``elapsed`` of this worker's accepted results.
    """

    __slots__ = ("connected_at", "completed", "failed", "busy", "seeded_rows")

    def __init__(self, connected_at: float) -> None:
        self.connected_at = connected_at
        self.completed = self.failed = self.seeded_rows = 0
        self.busy = 0.0

    def snapshot(self, name: str, now: float) -> dict:
        return worker_row(
            name, self.completed, self.failed, self.busy,
            now - self.connected_at, self.seeded_rows,
        )


class _Conn:
    """One multiplexed connection: socket, buffers, protocol state.

    Every connection speaks the frame protocol; its first frame tells a
    worker (``hello``) from a status probe.
    """

    __slots__ = (
        "sock", "peer", "inbuf", "outbuf", "owner", "held",
        "worker_name", "local", "info", "seed_iter", "seeded",
        "handshaken", "draining", "deadline", "close_after_flush",
    )

    def __init__(self, sock: socket.socket, peer: str):
        self.sock = sock
        self.peer = peer
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.owner = 0
        self.held: set[int] = set()
        self.worker_name = peer
        self.local = False
        self.info: _WorkerInfo | None = None
        self.seed_iter = None
        self.seeded = 0
        self.handshaken = False
        self.draining = False
        self.deadline: float | None = None
        self.close_after_flush = False


class Coordinator:
    """Serve a batch of jobs to TCP workers and collect their results.

    When a result store is active, every remote worker's handshake is
    followed by a ``store_seed`` stream: the store's rows (current kernel
    versions only, chunked) land in the worker's in-memory seed tier, so
    hosts without a shared filesystem start as warm as the coordinator.
    Seeding is read-only; the single-writer invariant is untouched.

    Parameters
    ----------
    tasks:
        The jobs to distribute.  Results come back in submission order,
        exactly as from :func:`~repro.engine.batch.run_batch`.
    host, port:
        Bind address.  ``port=0`` picks an ephemeral port (``start()``
        returns the bound address).  Bind to ``127.0.0.1`` (the default)
        unless remote workers are expected — the protocol is pickled
        frames inside one trust domain, so only expose the port to hosts
        you would run code from.
    lease_timeout:
        Seconds a leased job may go without a result or heartbeat before
        it is requeued for another worker.  Workers heartbeat at a third
        of this interval (told to them in the handshake), so only a dead
        or wedged worker trips it.
    log:
        Optional callable receiving one-line progress strings (worker
        connects/disconnects, requeues); silent when ``None``.
    """

    def __init__(
        self,
        tasks: Sequence[Job],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout: float = 60.0,
        wait_delay: float = 0.25,
        log: Callable[[str], None] | None = None,
    ):
        if lease_timeout <= 0:
            raise DistError(f"lease_timeout must be positive, got {lease_timeout}")
        self._tasks = list(tasks)
        self._host = host
        self._port = port
        self._lease_timeout = lease_timeout
        self._wait_delay = wait_delay
        self._log = log or (lambda message: None)

        self._lock = threading.Lock()
        self._pending: deque[int] = deque(range(len(self._tasks)))
        self._leases: dict[int, _Lease] = {}
        self._outcomes: list[JobResult | JobFailure | None] = [None] * len(
            self._tasks
        )
        self._remaining = len(self._tasks)
        self._done = threading.Event()
        if self._remaining == 0:
            self._done.set()
        self._worker_info: dict[str, _WorkerInfo] = {}
        self._rows_seeded = 0
        self._requeues = 0
        self._owner_counter = 0
        # Stats deltas produced in *other* processes — the only ones this
        # process must absorb into its cache/store totals at the end (an
        # in-process worker's activity is already in the live counters).
        self._remote_cache_delta = CacheStats()
        self._remote_store_delta = None
        self._store = None
        self._owns_store = False
        self._listener: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._conns: set[_Conn] = set()
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        self._loop_thread: threading.Thread | None = None
        self._closing = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        if self._listener is None:
            raise DistError("coordinator not started")
        return self._listener.getsockname()[:2]

    @property
    def requeues(self) -> int:
        """Jobs requeued after a worker died or went silent."""
        with self._lock:
            return self._requeues

    @property
    def rows_seeded(self) -> int:
        """Store rows streamed to connecting workers (all handshakes)."""
        with self._lock:
            return self._rows_seeded

    def status_snapshot(self) -> dict:
        """The machine-readable state behind ``dist status`` probes."""
        now = time.monotonic()
        with self._lock:
            return {
                "version": PROTOCOL_VERSION,
                "jobs": len(self._tasks),
                "completed": len(self._tasks) - self._remaining,
                "queue_depth": len(self._pending),
                "leases": len(self._leases),
                "requeues": self._requeues,
                # The condition _on_first_frame seeds under, minus its
                # per-connection test: no store, nothing to seed from.
                "seed_store": self._store is not None,
                "rows_seeded": self._rows_seeded,
                "workers": [
                    info.snapshot(name, now)
                    for name, info in sorted(self._worker_info.items())
                ],
            }

    def metrics_snapshot(self) -> dict:
        """The coordinator-side metrics threaded onto the batch result.

        The subset of :meth:`status_snapshot` that stays meaningful after
        the run: per-worker throughput plus the seed/requeue counters.
        :meth:`serve` attaches it to ``BatchResult.dist_metrics`` so
        experiment footers and ``sweep --json`` can report cluster
        behaviour without a live probe.
        """
        status = self.status_snapshot()
        return {
            key: status[key]
            for key in ("requeues", "rows_seeded", "workers")
        }

    def start(self) -> tuple[str, int]:
        """Bind, listen, and start the event loop in one background thread."""
        if self._listener is not None:
            return self.address
        from ..engine.batch import _active_store

        self._store = _active_store()
        if self._store is not None:
            # Own anything already pending so per-job absorbs attribute
            # rows to the jobs that produced them (mirrors run_batch).
            self._store.flush()
            # Mark this process as the store's writer so an *in-process*
            # worker (threaded tests, single-host convenience) does not
            # flip the shared store into deferred-write worker mode and
            # stall the per-job flushes.
            self._store.coordinator_owned += 1
            self._owns_store = True
        self._listener = self._bind()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._wake_r, selectors.EVENT_READ, ("wake",))
        self._selector.register(
            self._listener, selectors.EVENT_READ, ("accept",)
        )
        self._loop_thread = threading.Thread(
            target=self._loop, name="dist-loop", daemon=True
        )
        self._loop_thread.start()
        self._log(f"coordinator listening on {self.address[0]}:{self.address[1]}")
        return self.address

    def _bind(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((self._host, self._port))
        except OSError as exc:
            sock.close()
            raise DistError(
                f"cannot bind coordinator to {self._host}:{self._port}: {exc}"
            ) from exc
        sock.listen(128)
        sock.setblocking(False)
        return sock

    def serve(self) -> BatchResult:
        """Block until every job has a result, then finalize the batch.

        Identical post-processing to :func:`~repro.engine.batch.run_batch`:
        the workers' statistics are absorbed into this process's
        cache/store, and any failure raises one
        :class:`~repro.engine.batch.JobError` naming every failed job.
        """
        self.start()
        try:
            self._done.wait()
        finally:
            self.close()
        with self._lock:
            outcomes = list(self._outcomes)
            workers = max(1, len(self._worker_info))
            remote_cache = self._remote_cache_delta
            remote_store = self._remote_store_delta
        # Absorb only the activity that happened in *other* processes:
        # an in-process worker already mutated the live counters, and
        # run_batch's serial path likewise never absorbs its own deltas.
        KERNEL_CACHE.absorb(remote_cache)
        if self._store is not None and remote_store is not None:
            self._store.absorb_stats(remote_store)
        result = finalize_outcomes(
            [o for o in outcomes if o is not None], workers=workers
        )
        return replace(result, dist_metrics=self.metrics_snapshot())

    def close(self) -> None:
        """Stop listening, drain in-flight farewells, stop the loop."""
        self._closing = True
        if self._owns_store and self._store is not None:
            self._store.coordinator_owned -= 1
            self._owns_store = False
        thread = self._loop_thread
        if thread is not None and thread.is_alive():
            self._wake()
            thread.join(timeout=_CLOSE_GRACE + 2.0)
        elif self._selector is not None and not self._closed:
            # start() succeeded but the loop never ran (or already died):
            # release the sockets directly.
            self._teardown()
        self._closed = True

    def __enter__(self) -> "Coordinator":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _wake(self) -> None:
        wake = self._wake_w
        if wake is not None:
            try:
                wake.send(b"x")
            except OSError:  # pragma: no cover - loop already gone
                pass

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        try:
            self._loop_body()
        finally:
            self._teardown()

    def _loop_body(self) -> None:
        assert self._selector is not None
        close_deadline: float | None = None
        listening = True
        while True:
            now = time.monotonic()
            if self._closing:
                if listening:
                    listening = False
                    self._close_listener()
                    close_deadline = now + _CLOSE_GRACE
                    # Idle pollers on a finished batch deserve a proper
                    # "done" instead of a cut connection; draining
                    # connections keep the loop alive (bounded by the
                    # grace) until their farewell bye lands.
                    self._broadcast_done()
                    for conn in list(self._conns):
                        if conn.draining:
                            continue
                        if conn.outbuf:
                            conn.close_after_flush = True
                            self._flush_conn(conn)
                        else:
                            self._drop(conn, None)
                if not self._conns or now >= close_deadline:
                    return
            try:
                events = self._selector.select(self._loop_timeout(now))
            except OSError:  # pragma: no cover - selector torn down
                return
            for key, mask in events:
                tag = key.data
                if tag[0] == "wake":
                    try:
                        while self._wake_r.recv(4096):
                            pass
                    except (BlockingIOError, OSError):
                        pass
                elif tag[0] == "accept":
                    self._accept()
                else:
                    conn = tag[1]
                    if conn not in self._conns:
                        continue  # dropped by an earlier event this round
                    if mask & selectors.EVENT_READ:
                        self._on_readable(conn)
                    if conn in self._conns and mask & selectors.EVENT_WRITE:
                        self._flush_conn(conn)
            self._expire_leases()
            self._expire_farewells()
            self._broadcast_done()

    def _loop_timeout(self, now: float) -> float:
        timeout = min(1.0, self._lease_timeout / 4)
        for conn in self._conns:
            if conn.deadline is not None:
                timeout = min(timeout, conn.deadline - now)
        if self._closing:
            timeout = min(timeout, 0.05)
        return max(0.01, timeout)

    def _close_listener(self) -> None:
        sock = self._listener
        if sock is None:
            return
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass
        try:
            sock.close()
        except OSError:  # pragma: no cover - best effort
            pass

    def _teardown(self) -> None:
        for conn in list(self._conns):
            self._drop(conn, None)
        self._close_listener()
        for sock in (self._wake_r, self._wake_w):
            if sock is not None:
                try:
                    sock.close()
                except OSError:  # pragma: no cover - best effort
                    pass
        if self._selector is not None:
            try:
                self._selector.close()
            except OSError:  # pragma: no cover - best effort
                pass

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------
    def _accept(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed under us: shutting down
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP/odd platforms
                pass
            conn = _Conn(sock, f"{addr[0]}:{addr[1]}")
            with self._lock:
                self._owner_counter += 1
                conn.owner = self._owner_counter
            self._conns.add(conn)
            self._selector.register(
                sock, selectors.EVENT_READ, ("conn", conn)
            )

    def _update_interest(self, conn: _Conn) -> None:
        events = selectors.EVENT_READ
        if conn.outbuf:
            events |= selectors.EVENT_WRITE
        try:
            self._selector.modify(conn.sock, events, ("conn", conn))
        except (KeyError, ValueError, OSError):  # pragma: no cover
            pass

    def _drop(self, conn: _Conn, reason: str | None) -> None:
        """Unregister, close, and release a connection's leases."""
        if conn not in self._conns:
            return
        self._conns.discard(conn)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):  # pragma: no cover - already gone
            pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - best effort
            pass
        if reason:
            self._log(f"worker {conn.worker_name} connection error: {reason}")
        self._release(conn.owner, conn.held, conn.worker_name)

    def _on_readable(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._drop(conn, str(exc))
            return
        if not data:
            self._drop(conn, None)  # peer closed: _release requeues
            return
        conn.inbuf += data
        while conn in self._conns:
            header = _HEADER.size
            if len(conn.inbuf) < header:
                return
            (length,) = _HEADER.unpack(conn.inbuf[:header])
            if length > MAX_FRAME:
                self._drop(conn, f"frame length {length} exceeds cap")
                return
            if len(conn.inbuf) < header + length:
                return
            blob = bytes(conn.inbuf[header : header + length])
            del conn.inbuf[: header + length]
            try:
                kind, payload = decode_message(blob)
                self._on_frame(conn, kind, payload)
            except ProtocolError as exc:
                self._drop(conn, str(exc))
                return

    def _send(self, conn: _Conn, kind: str, payload: object = None) -> None:
        if conn.seed_iter is not None and kind in ("job", "wait", "done"):
            # Directives must trail the whole seed stream on the wire:
            # the worker reads seed frames to completion before its first
            # "next", so anything else interleaved would desync it.
            self._pump_seed(conn, force=True)
        conn.outbuf += encode_message(kind, payload)
        self._flush_conn(conn)

    def _flush_conn(self, conn: _Conn) -> None:
        if conn not in self._conns:
            return
        self._pump_seed(conn)
        while conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError as exc:
                self._drop(conn, f"send failed: {exc}")
                return
            if sent <= 0:  # pragma: no cover - defensive
                break
            del conn.outbuf[:sent]
            if not conn.outbuf:
                self._pump_seed(conn)
        if not conn.outbuf and conn.close_after_flush:
            self._drop(conn, None)
            return
        self._update_interest(conn)

    def _pump_seed(self, conn: _Conn, *, force: bool = False) -> None:
        """Top the write buffer up from the connection's seed stream.

        Chunked and back-pressured: the store is locked per chunk (inside
        ``export_seed``) and chunks are only materialised while the write
        buffer is below the low-water mark, so one slow worker neither
        holds the store nor balloons coordinator memory.
        """
        while conn.seed_iter is not None and (
            force or len(conn.outbuf) < _SEED_LOW_WATER
        ):
            try:
                chunk = next(conn.seed_iter)
            except StopIteration:
                chunk = None
            except Exception as exc:  # store torn down mid-stream
                self._log(f"seed stream to {conn.worker_name} failed: {exc}")
                chunk = None
            if chunk is None:
                conn.seed_iter = None
                conn.outbuf += encode_message(
                    STORE_SEED, {"rows": (), "done": True}
                )
                with self._lock:
                    self._rows_seeded += conn.seeded
                    if conn.info is not None:
                        conn.info.seeded_rows += conn.seeded
                TRACER.instant(
                    "dist:seed_stream", cat="dist",
                    worker=conn.worker_name, rows=conn.seeded,
                )
                self._log(
                    f"seeded {conn.seeded} store row(s) to worker "
                    f"{conn.worker_name}"
                )
                return
            conn.outbuf += encode_message(
                STORE_SEED, {"rows": chunk, "done": False}
            )
            conn.seeded += len(chunk)

    # ------------------------------------------------------------------
    # Frame dispatch (the old per-connection thread, as a state machine)
    # ------------------------------------------------------------------
    def _on_frame(self, conn: _Conn, kind: str, payload: object) -> None:
        if not conn.handshaken:
            self._on_first_frame(conn, kind, payload)
            return
        if conn.draining:
            # After ``done`` only the farewell matters; anything else
            # (late heartbeats, a duplicate result's next poll) is noise.
            if kind == "bye":
                self._drop(conn, None)
            return
        if kind == "heartbeat":
            TRACER.instant(
                "dist:heartbeat", cat="dist", worker=conn.worker_name,
                index=payload.get("index") if isinstance(payload, dict) else None,
            )
            if isinstance(payload, dict):
                self._extend_lease(conn.owner, payload.get("index"))
            return
        if kind == "bye":
            self._drop(conn, None)
            return
        if kind == "result":
            if not isinstance(payload, dict):
                raise ProtocolError("result payload must be a mapping")
            index = payload["index"]
            outcome = payload["outcome"]
            accepted = self._complete(index, outcome, conn.local)
            conn.held.discard(index)
            if accepted and conn.info is not None:
                # Dropped duplicates (post-requeue replays) must not
                # inflate the status probe's throughput.
                with self._lock:
                    if isinstance(outcome, JobFailure):
                        conn.info.failed += 1
                    else:
                        conn.info.completed += 1
                        conn.info.busy += outcome.elapsed
        elif kind != "next":
            raise ProtocolError(
                f"unexpected frame {kind!r} from {conn.worker_name}"
            )
        reply_kind, reply_payload = self._assign(conn.owner, conn.held)
        self._send(conn, reply_kind, reply_payload)
        if reply_kind == "done":
            conn.draining = True
            conn.deadline = time.monotonic() + _FAREWELL_GRACE

    def _on_first_frame(self, conn: _Conn, kind: str, payload: object) -> None:
        if kind == DIST_STATUS:
            self._answer_status(conn, payload)
            conn.close_after_flush = True
            self._flush_conn(conn)
            return
        if kind != "hello" or not isinstance(payload, dict):
            self._send(conn, "reject", {"reason": "expected hello"})
            conn.close_after_flush = True
            self._flush_conn(conn)
            return
        version = payload.get("version")
        if version != PROTOCOL_VERSION:
            self._send(
                conn,
                "reject",
                {
                    "reason": f"protocol version {version} != "
                    f"{PROTOCOL_VERSION}"
                },
            )
            conn.close_after_flush = True
            self._flush_conn(conn)
            return
        conn.worker_name = str(payload.get("worker") or conn.peer)
        conn.local = (
            payload.get("host") == socket.gethostname()
            and payload.get("pid") == os.getpid()
        )
        # Seeding targets *remote* workers: an in-process worker
        # already reads this very store directly.
        seed = self._store is not None and not conn.local
        with self._lock:
            conn.info = self._worker_info.setdefault(
                conn.worker_name, _WorkerInfo(connected_at=time.monotonic())
            )
        conn.handshaken = True
        self._send(
            conn,
            "welcome",
            {
                "version": PROTOCOL_VERSION,
                "jobs": len(self._tasks),
                "heartbeat": self._lease_timeout / 3,
                "seed": {"enabled": seed},
                # Observability: the coordinator's wall clock (the
                # worker's clock-offset reference point) and whether
                # the worker should buffer + ship trace spans.
                "now": time.time(),
                "trace": TRACER.enabled,
            },
        )
        self._log(f"worker {conn.worker_name} connected")
        if seed:
            conn.seed_iter = self._store.export_seed()
            self._flush_conn(conn)  # starts pumping the stream

    # ------------------------------------------------------------------
    # Queue state transitions (all under the lock)
    # ------------------------------------------------------------------
    def _assign(self, owner: int, held: set[int]) -> tuple[str, dict]:
        with self._lock:
            if self._remaining == 0:
                return "done", {}
            if self._pending:
                index = self._pending.popleft()
                self._leases[index] = _Lease(
                    owner=owner,
                    deadline=time.monotonic() + self._lease_timeout,
                )
                held.add(index)
                TRACER.instant(
                    "dist:lease", cat="dist", index=index, owner=owner,
                    job=self._tasks[index].name,
                )
                return "job", {"index": index, "job": self._tasks[index]}
            return "wait", {"delay": self._wait_delay}

    def _extend_lease(self, owner: int, index: object) -> None:
        with self._lock:
            lease = self._leases.get(index) if isinstance(index, int) else None
            if lease is not None and lease.owner == owner:
                lease.deadline = time.monotonic() + self._lease_timeout

    def _complete(
        self, index: int, outcome: JobResult | JobFailure, local: bool
    ) -> bool:
        """Record one result; False when a duplicate was dropped."""
        if not isinstance(index, int) or not 0 <= index < len(self._tasks):
            raise ProtocolError(f"result for unknown job index {index!r}")
        with self._lock:
            self._leases.pop(index, None)
            if self._outcomes[index] is not None:
                return False  # duplicate of a requeued job: first result won
            try:
                # The job may have been requeued and be waiting for the
                # next worker; this result arrived first, so withdraw it.
                self._pending.remove(index)
            except ValueError:
                pass
            self._outcomes[index] = outcome
            self._remaining -= 1
            finished = self._remaining == 0
            if not local and isinstance(outcome, JobResult):
                self._remote_cache_delta = self._remote_cache_delta.merge(
                    outcome.stats
                )
                if outcome.store_stats is not None:
                    self._remote_store_delta = (
                        outcome.store_stats
                        if self._remote_store_delta is None
                        else self._remote_store_delta.merge(
                            outcome.store_stats
                        )
                    )
        # Persist outside the queue lock: the store has its own lock, and
        # a slow flush must not stall a status probe mid-snapshot.
        land_outcome(outcome, self._store)
        if finished:
            self._done.set()
        return True

    def _broadcast_done(self) -> None:
        """Tell parked workers the batch finished without waiting for
        their next poll.

        Only idle connections (no held leases) are told: a worker still
        computing a requeued duplicate keeps its request/response stream
        intact and learns ``done`` as the piggybacked reply to its
        result, exactly as before.
        """
        if not self._done.is_set():
            return
        for conn in list(self._conns):
            if (
                conn.handshaken
                and not conn.draining
                and not conn.close_after_flush
                and not conn.held
            ):
                self._send(conn, "done", {})
                conn.draining = True
                conn.deadline = time.monotonic() + _FAREWELL_GRACE

    def _expire_leases(self) -> None:
        """Requeue jobs whose lease expired (dead or silent worker)."""
        if self._done.is_set():
            return
        now = time.monotonic()
        with self._lock:
            expired = [
                index
                for index, lease in self._leases.items()
                if lease.deadline < now
            ]
            for index in expired:
                del self._leases[index]
                self._pending.appendleft(index)
                self._requeues += 1
        for index in expired:
            TRACER.instant("dist:requeue", cat="dist", index=index)
            self._log(
                f"requeued job {index} after {self._lease_timeout:.1f}s "
                "without a heartbeat"
            )

    def _expire_farewells(self) -> None:
        """Close post-``done`` connections whose farewell never came."""
        now = time.monotonic()
        for conn in list(self._conns):
            if conn.draining and conn.deadline is not None and now >= conn.deadline:
                self._drop(conn, None)

    def _release(self, owner: int, held: set[int], worker: str) -> None:
        """Requeue every job this connection still holds (worker died)."""
        requeued = []
        with self._lock:
            for index in held:
                lease = self._leases.get(index)
                if lease is not None and lease.owner == owner:
                    del self._leases[index]
                    self._pending.appendleft(index)
                    self._requeues += 1
                    requeued.append(index)
        for index in requeued:
            self._log(f"requeued job {index} after {worker} disconnected")

    # ------------------------------------------------------------------
    # The status probe
    # ------------------------------------------------------------------
    def _answer_status(self, conn: _Conn, payload: object) -> None:
        """Serve a ``status`` probe (first frame of its own connection)."""
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != PROTOCOL_VERSION:
            self._send(
                conn,
                "reject",
                {
                    "reason": f"protocol version {version} != "
                    f"{PROTOCOL_VERSION}"
                },
            )
            return
        self._send(conn, DIST_STATUS_REPLY, self.status_snapshot())
