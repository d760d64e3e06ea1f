"""SQLite-backed persistent result store: the kernel cache's second tier.

A :class:`ResultStore` maps ``(kernel, version, key_hash)`` to a pickled
kernel result.  ``key_hash`` is the content-addressed fingerprint of the
kernel's cache key (:mod:`repro.store.keys`), and ``version`` identifies
the kernel *implementation* — by default a hash of its source — so an
edited kernel never reads results computed by its former self.

Design points:

* **Batched writes.**  ``save`` only appends to an in-memory pending list;
  rows reach SQLite in one transaction per :meth:`flush` (triggered by the
  batch-size high-water mark, :func:`run_batch` progress, or exit).  The
  pending list doubles as a read-through overlay so an unflushed row is
  already visible to :meth:`load`.
* **Fork safety / single writer.**  Connections are opened lazily and
  keyed on the owning PID; a worker forked by
  :func:`~repro.engine.batch.run_batch` never touches the parent's
  connection.  Workers — daemonic pool processes, and any process with
  :attr:`ResultStore.worker_mode` set (distributed workers) — never
  auto-flush: the batch driver or coordinator drains their pending rows
  back to the parent with the job results, which is how parallel and
  distributed runs populate one store file without concurrent writers.
* **Integrity.**  Every row carries a SHA-256 checksum of its value blob;
  corrupt or unreadable rows are treated as misses and deleted on sight,
  and :meth:`integrity_report` audits the whole file.
* **Network warm start.**  Distributed workers without a shared
  filesystem start warm from an in-memory *seed* tier
  (:meth:`import_seed_rows`, populated from the coordinator's
  ``store_seed`` stream at handshake; :meth:`export_seed` is the sending
  side), consulted before the database.  It only ever reads — writes
  still ride home inside job results — and its hits count into the
  ordinary hit statistics plus a dedicated ``seed_hits`` counter.

Modes: ``rw`` (read + write-back), ``ro`` (warm-start only, never writes),
``off`` (inert).  The module-level switchboard lives in
:mod:`repro.store` (``REPRO_STORE`` / ``REPRO_STORE_PATH``).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from threading import RLock

from ..errors import StoreError
from ..obs.trace import TRACER
from .keys import fingerprint

__all__ = [
    "MISS",
    "StoreError",
    "StoreStats",
    "StoreRow",
    "ResultStore",
    "MODES",
]

MODES = ("off", "ro", "rw")

#: Module-private miss sentinel: ``load`` returns it so ``None`` stays a
#: perfectly valid stored value (e.g. "no shelling order exists").
MISS = object()

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    kernel    TEXT NOT NULL,
    version   TEXT NOT NULL,
    key_hash  TEXT NOT NULL,
    value     BLOB NOT NULL,
    checksum  TEXT NOT NULL,
    created   REAL NOT NULL,
    PRIMARY KEY (kernel, version, key_hash)
);
"""


@dataclass(frozen=True)
class StoreStats:
    """Immutable snapshot of store-tier activity, mergeable across workers."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    by_kernel: tuple[tuple[str, int, int, int], ...] = ()
    """Per-kernel ``(name, hits, misses, writes)`` rows, sorted by name."""

    seed_hits: int = 0
    """Hits served by the in-memory seed tier (rows streamed from a
    distributed coordinator's store at handshake); always also counted in
    ``hits``."""

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def merge(self, other: "StoreStats") -> "StoreStats":
        """Combine two snapshots (e.g. parent stats + a worker delta)."""
        merged: dict[str, list[int]] = {}
        for name, hits, misses, writes in self.by_kernel + other.by_kernel:
            row = merged.setdefault(name, [0, 0, 0])
            row[0] += hits
            row[1] += misses
            row[2] += writes
        return StoreStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            writes=self.writes + other.writes,
            by_kernel=tuple(
                (name, *row) for name, row in sorted(merged.items())
            ),
            seed_hits=self.seed_hits + other.seed_hits,
        )

    def delta_since(self, baseline: "StoreStats") -> "StoreStats":
        """Activity between ``baseline`` and this snapshot."""
        base = {name: (h, m, w) for name, h, m, w in baseline.by_kernel}
        rows = []
        for name, hits, misses, writes in self.by_kernel:
            bh, bm, bw = base.get(name, (0, 0, 0))
            if hits - bh or misses - bm or writes - bw:
                rows.append((name, hits - bh, misses - bm, writes - bw))
        return StoreStats(
            hits=self.hits - baseline.hits,
            misses=self.misses - baseline.misses,
            writes=self.writes - baseline.writes,
            by_kernel=tuple(rows),
            seed_hits=self.seed_hits - baseline.seed_hits,
        )

    def to_dict(self) -> dict:
        """JSON-ready representation (``store stats --json`` and CI)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "hit_rate": self.hit_rate,
            "seed_hits": self.seed_hits,
            "by_kernel": [
                {"kernel": name, "hits": h, "misses": m, "writes": w}
                for name, h, m, w in self.by_kernel
            ],
        }

    def describe(self) -> str:
        lines = [
            f"result store: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), {self.writes} writes"
        ]
        if self.seed_hits:
            lines.append(
                f"  network warm start: {self.seed_hits} seeded hit(s)"
            )
        for name, hits, misses, writes in self.by_kernel:
            total = hits + misses
            rate = hits / total if total else 0.0
            lines.append(
                f"  {name}: {hits}/{total} hits ({rate:.0%}), {writes} writes"
            )
        return "\n".join(lines)


#: One pending/persisted row: ``(kernel, version, key_hash, blob, checksum,
#: created)`` — plain picklable tuples so workers and seeding coordinators
#: can ship them over the wire.  Rows from other processes with any other
#: field count are skipped.
StoreRow = tuple[str, str, str, bytes, str, float]


@dataclass
class _StoreCounters:
    hits: int = 0
    misses: int = 0
    writes: int = 0
    seed_hits: int = 0


def _checksum(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _in_daemon_process() -> bool:
    return multiprocessing.current_process().daemon


class ResultStore:
    """Content-addressed persistent kernel-result store over SQLite.

    Parameters
    ----------
    path:
        Database file; parent directories are created on first write.
    mode:
        ``"rw"``, ``"ro"`` or ``"off"`` (see the module docstring).
    batch_size:
        Pending-write high-water mark before an automatic :meth:`flush`
        (never triggered inside batch workers).
    """

    def __init__(self, path: str, mode: str = "off", batch_size: int = 64):
        if mode not in MODES:
            raise StoreError(f"mode must be one of {MODES}, got {mode!r}")
        if batch_size < 1:
            raise StoreError(f"batch_size must be positive, got {batch_size}")
        self.path = str(path)
        self.mode = mode
        self.batch_size = batch_size
        #: Distributed-worker switch: when True this process never writes
        #: SQLite — flush defers, rows accumulate for :meth:`drain_pending`,
        #: exactly like a daemonic pool worker.
        self.worker_mode = False
        #: Incremented by a dist coordinator serving from this process:
        #: an in-process worker must then leave ``worker_mode`` off, or
        #: it would stall the coordinator's own flushes.
        self.coordinator_owned = 0
        self._seed: dict[tuple[str, str, str], StoreRow] = {}
        self._pending: dict[tuple[str, str, str], StoreRow] = {}
        self._counters: dict[str, _StoreCounters] = {}
        self._absorbed = StoreStats()
        self._conn: sqlite3.Connection | None = None
        self._conn_pid: int | None = None
        self._broken_pid: int | None = None
        self._lock = RLock()
        # Which layer answered this thread's most recent load() — the
        # kernel wrapper reads it for trace-span tier attribution.
        # Thread-local because a coordinator replays checkpointed jobs on
        # its caller's thread while in-thread workers run theirs.
        self._last_tier = threading.local()

    # ------------------------------------------------------------------
    # Mode switches
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return self.mode != "off"

    @property
    def writable(self) -> bool:
        return self.mode == "rw"

    @contextmanager
    def disabled(self):
        """Context manager: run with the store switched off."""
        previous = self.mode
        self.mode = "off"
        try:
            yield self
        finally:
            self.mode = previous

    def _defer_writes(self) -> bool:
        """True when this process must not touch SQLite (batch/dist worker)."""
        return self.worker_mode or _in_daemon_process()

    # ------------------------------------------------------------------
    # Hit-tier attribution (trace spans)
    # ------------------------------------------------------------------
    def _served_by(self, tier: str | None) -> None:
        self._last_tier.value = tier

    def last_load_tier(self) -> str | None:
        """Which layer answered this thread's most recent :meth:`load`.

        ``"store"`` (pending overlay or SQLite), ``"seed"`` (in-memory
        warm-start tier), or ``None`` after a miss.  Consumed by
        :func:`~repro.engine.cache.cached_kernel` to stamp the ``tier``
        attribute on kernel spans.
        """
        return getattr(self._last_tier, "value", None)

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _connection(self) -> sqlite3.Connection | None:
        """The per-process connection, or ``None`` when unavailable.

        ``ro`` mode against a missing file is a healthy cold start, not an
        error: every lookup simply misses.  An unreadable file (truncated,
        not SQLite, locked-out schema) likewise degrades to ``None`` —
        persistence is best-effort and must never crash a kernel call —
        and the failure is remembered per process so kernels are not
        slowed by reconnect attempts (:meth:`integrity_report` surfaces
        the breakage).
        """
        with self._lock:
            pid = os.getpid()
            if self._conn is not None and self._conn_pid == pid:
                return self._conn
            if self._broken_pid == pid:
                return None
            # A connection inherited across fork must never be used (and
            # closing it here could corrupt the parent's descriptor state,
            # so it is simply dropped).
            self._conn = None
            if not self.writable and not os.path.exists(self.path):
                return None
            try:
                if self.writable:
                    parent = os.path.dirname(os.path.abspath(self.path))
                    os.makedirs(parent, exist_ok=True)
                # check_same_thread=False: the dist coordinator's
                # event-loop thread flushes on a connection that another
                # thread may have opened; every use of the connection is
                # serialised by self._lock, which is the thread-safety
                # SQLite's own check would otherwise insist on seeing.
                conn = sqlite3.connect(
                    self.path, timeout=30.0, check_same_thread=False
                )
                if self.writable:
                    # The journal mode is written into the file, and it
                    # stays WAL for every later (read-only) open.
                    conn.execute("PRAGMA journal_mode=WAL")
                    conn.execute("PRAGMA synchronous=NORMAL")
                    conn.executescript(_SCHEMA)
                else:
                    # A read, so a file SQLite cannot read is found here,
                    # once, without writing to the file.
                    conn.execute("SELECT 1 FROM sqlite_master LIMIT 1")
            except (sqlite3.Error, OSError):
                self._broken_pid = pid
                return None
            self._conn = conn
            self._conn_pid = pid
            return conn

    def close(self) -> None:
        """Flush pending writes and drop the connection."""
        with self._lock:
            self.flush()
            if self._conn is not None and self._conn_pid == os.getpid():
                self._conn.close()
            self._conn = None
            self._conn_pid = None

    # ------------------------------------------------------------------
    # The read/write hot path
    # ------------------------------------------------------------------
    def load(self, kernel: str, version: str, key: object) -> object:
        """Return the stored value, or the :data:`MISS` sentinel.

        Misses include: store inactive, unfingerprintable key, absent row,
        and corrupt row (which is deleted so it cannot keep failing).
        """
        self._served_by(None)
        if not self.active:
            return MISS
        key_hash = fingerprint(key)
        if key_hash is None:
            return MISS
        with self._lock:
            counters = self._counters.setdefault(kernel, _StoreCounters())
            full_key = (kernel, version, key_hash)
            pending = self._pending.get(full_key)
            if pending is not None:
                counters.hits += 1
                self._served_by("store")
                return pickle.loads(pending[3])
            seeded = self._seed.get(full_key)
            if seeded is not None:
                try:
                    value = pickle.loads(seeded[3])
                except Exception:
                    del self._seed[full_key]
                else:
                    counters.hits += 1
                    counters.seed_hits += 1
                    self._served_by("seed")
                    return value
            conn = self._connection()
            if conn is not None:
                try:
                    row = conn.execute(
                        "SELECT value, checksum FROM results "
                        "WHERE kernel = ? AND version = ? AND key_hash = ?",
                        (kernel, version, key_hash),
                    ).fetchone()
                except sqlite3.Error:
                    row = None
                if row is not None:
                    blob, checksum = row
                    if _checksum(blob) != checksum:
                        self._drop_row(kernel, version, key_hash)
                    else:
                        try:
                            value = pickle.loads(blob)
                        except Exception:
                            self._drop_row(kernel, version, key_hash)
                        else:
                            counters.hits += 1
                            self._served_by("store")
                            return value
            counters.misses += 1
            return MISS

    def save(self, kernel: str, version: str, key: object, value: object) -> None:
        """Queue a computed result for write-back (no-op unless ``rw``)."""
        if not self.writable:
            return
        key_hash = fingerprint(key)
        if key_hash is None:
            return
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return  # unpicklable value: persistence is best-effort
        row: StoreRow = (
            kernel, version, key_hash, blob, _checksum(blob), time.time()
        )
        with self._lock:
            self._pending[(kernel, version, key_hash)] = row
            self._counters.setdefault(kernel, _StoreCounters()).writes += 1
            if len(self._pending) >= self.batch_size and not self._defer_writes():
                self.flush()

    def _drop_row(self, kernel: str, version: str, key_hash: str) -> None:
        if not self.writable:
            return
        conn = self._connection()
        if conn is None:
            return
        try:
            conn.execute(
                "DELETE FROM results "
                "WHERE kernel = ? AND version = ? AND key_hash = ?",
                (kernel, version, key_hash),
            )
            conn.commit()
        except sqlite3.Error:
            pass

    # ------------------------------------------------------------------
    # Batching / worker merge
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Write all pending rows in one transaction; returns the count.

        Inside a batch/dist worker (daemonic process or :attr:`worker_mode`)
        this is a no-op that *keeps* the pending rows: the parent process
        is the only database writer, and the batch driver or coordinator
        ships the worker's rows home with its job results
        (:meth:`drain_pending`).
        """
        if self._defer_writes():
            return 0
        with self._lock:
            if not self.writable:
                # Dropping unwritable pendings keeps ro/off stores bounded.
                count = len(self._pending)
                self._pending.clear()
                return count
            if not self._pending:
                return 0
            conn = self._connection()
            if conn is None:
                # Unreadable database: best-effort persistence gives up on
                # these rows rather than growing the buffer forever.
                self._pending.clear()
                return 0
            rows = list(self._pending.values())
            with TRACER.span("store:flush", cat="store", rows=len(rows)):
                # Upsert rather than replace: a duplicate arrival (e.g. a
                # requeued job recomputed elsewhere, or absorbed rows this
                # file already holds) keeps its rowid, so a live
                # export_seed stream, which pages by rowid, never meets
                # the same row twice.
                conn.executemany(
                    "INSERT INTO results "
                    "(kernel, version, key_hash, value, checksum, created) "
                    "VALUES (?, ?, ?, ?, ?, ?) "
                    "ON CONFLICT(kernel, version, key_hash) DO UPDATE SET "
                    "value = excluded.value, checksum = excluded.checksum",
                    rows,
                )
                conn.commit()
            self._pending.clear()
            return len(rows)

    def drain_pending(self) -> tuple[StoreRow, ...]:
        """Remove and return the pending rows (a worker's write delta).

        The batch driver ships these back with each job result; the parent
        re-absorbs them with :meth:`absorb_rows`, so one process owns all
        database writes.
        """
        with self._lock:
            rows = tuple(self._pending.values())
            self._pending.clear()
            return rows

    def absorb_rows(self, rows: tuple[StoreRow, ...] | list[StoreRow]) -> None:
        """Queue rows drained from a worker for this process's next flush.

        A row without the six :data:`StoreRow` fields is skipped, so it
        never reaches the flush.
        """
        if not rows or not self.writable:
            return
        with self._lock:
            for row in rows:
                if len(row) == 6:
                    self._pending[(row[0], row[1], row[2])] = row

    def absorb_stats(self, delta: StoreStats) -> None:
        """Fold a worker's statistics delta into this store's totals."""
        with self._lock:
            self._absorbed = self._absorbed.merge(delta)

    # ------------------------------------------------------------------
    # Network warm start (distributed seeding)
    # ------------------------------------------------------------------
    @property
    def seed_rows(self) -> int:
        """Rows currently held by the in-memory seed tier."""
        with self._lock:
            return len(self._seed)

    def import_seed_rows(self, rows) -> int:
        """Install rows into the in-memory seed tier; returns the count kept.

        The receiving half of a coordinator's ``store_seed`` stream.
        Rows are checksum-verified on the way in (a torn frame must not
        plant corrupt values) and are never written to this process's
        database — the seed tier is a read-only warm-start overlay, which
        is what preserves the cluster-wide single-writer invariant.
        """
        kept = 0
        with TRACER.span("store:seed_import", cat="store") as sp:
            with self._lock:
                for row in rows or ():
                    try:
                        if len(row) != 6 or _checksum(row[3]) != row[4]:
                            continue
                    except TypeError:
                        continue
                    self._seed[(row[0], row[1], row[2])] = tuple(row)
                    kept += 1
            sp.set(rows=kept)
        return kept

    def clear_seed(self) -> int:
        """Drop the seed tier (a worker releasing a finished batch)."""
        with self._lock:
            count = len(self._seed)
            self._seed.clear()
            return count

    def export_seed(
        self,
        versions=None,
        *,
        chunk_rows: int = 512,
        chunk_bytes: int = 8 << 20,
    ):
        """Yield chunks of raw rows for seeding a connecting worker.

        ``versions`` maps kernel name to an implementation version; only
        matching rows ship.  ``None`` means "every kernel registered in
        this process, at its current version" — so rows orphaned by an
        edited kernel never travel.  Chunks are bounded by row count and
        payload bytes, and the database is locked per chunk only, so a
        huge store streams as many modest frames without stalling the
        store for concurrent flushes.
        """
        if versions is None:
            versions = _current_kernel_versions()
        pairs = sorted(versions.items())
        if not pairs:
            return
        # The filter lives in the WHERE clause: a store full of
        # stale-version or unregistered-kernel rows must not have their
        # blobs fetched just to be discarded, once per connecting worker.
        placeholders = ", ".join(["(?, ?)"] * len(pairs))
        query = (
            "SELECT rowid, kernel, version, key_hash, value, checksum, "
            "created FROM results "
            f"WHERE rowid > ? AND (kernel, version) IN (VALUES {placeholders}) "
            "ORDER BY rowid LIMIT ?"
        )
        filter_params = [value for pair in pairs for value in pair]
        last_rowid = 0
        while True:
            with self._lock:
                self.flush()
                conn = self._connection()
                if conn is None:
                    return
                try:
                    fetched = conn.execute(
                        query, (last_rowid, *filter_params, chunk_rows)
                    ).fetchall()
                except sqlite3.Error:
                    return
            if not fetched:
                return
            chunk: list[StoreRow] = []
            size = 0
            for rowid, *row in fetched:
                last_rowid = rowid
                chunk.append(tuple(row))
                size += len(row[3])
                if size >= chunk_bytes:
                    yield chunk
                    chunk, size = [], 0
            if chunk:
                yield chunk

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> StoreStats:
        """Snapshot of this process's activity plus absorbed worker deltas."""
        with self._lock:
            local = StoreStats(
                hits=sum(c.hits for c in self._counters.values()),
                misses=sum(c.misses for c in self._counters.values()),
                writes=sum(c.writes for c in self._counters.values()),
                by_kernel=tuple(
                    (name, c.hits, c.misses, c.writes)
                    for name, c in sorted(self._counters.items())
                ),
                seed_hits=sum(
                    c.seed_hits for c in self._counters.values()
                ),
            )
            return local.merge(self._absorbed)

    def db_stats(self) -> dict:
        """Database-side inventory: rows/bytes per kernel, staleness, size.

        A missing file, or a SQLite file without the results table, is an
        empty store; a file SQLite cannot read raises
        :class:`StoreError`, as the maintenance calls do.
        """
        with self._lock:
            self.flush()
            conn = self._connection()
            info: dict = {
                "path": self.path,
                "mode": self.mode,
                "exists": os.path.exists(self.path),
                "entries": 0,
                "kernels": [],
                "stale_entries": 0,
                "file_bytes": (
                    os.path.getsize(self.path)
                    if os.path.exists(self.path)
                    else 0
                ),
            }
            if conn is None:
                if not info["exists"]:
                    return info
                raise StoreError(f"store file {self.path} is unreadable")
            try:
                if conn.execute(
                    "SELECT 1 FROM sqlite_master "
                    "WHERE type = 'table' AND name = 'results'"
                ).fetchone() is None:
                    return info
                rows = conn.execute(
                    "SELECT kernel, version, COUNT(*), SUM(LENGTH(value)) "
                    "FROM results GROUP BY kernel, version "
                    "ORDER BY kernel, version"
                ).fetchall()
            except sqlite3.Error as exc:
                raise StoreError(
                    f"store file {self.path} is unreadable"
                ) from exc
            current = _current_kernel_versions()
            stale = 0
            for kernel, version, count, value_bytes in rows:
                known = current.get(kernel)
                is_stale = known is not None and version != known
                if is_stale:
                    stale += count
                info["kernels"].append(
                    {
                        "kernel": kernel,
                        "version": version,
                        "entries": count,
                        "value_bytes": value_bytes or 0,
                        "stale": is_stale,
                    }
                )
                info["entries"] += count
            info["stale_entries"] = stale
            return info

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def vacuum(self) -> dict:
        """Garbage-collect stale kernel versions, then ``VACUUM``.

        A row is stale when its kernel is registered in this process and
        the row's version is not the kernel's current one; rows of
        unknown kernels are kept (another tool or an older checkout may
        still want them).
        """
        if not self.writable:
            raise StoreError("vacuum needs a writable (rw) store")
        with self._lock, TRACER.span("store:vacuum", cat="store") as sp:
            self.flush()
            conn = self._connection()
            if conn is None:
                raise StoreError(f"store file {self.path} is unreadable")
            deleted = 0
            for kernel, version in _current_kernel_versions().items():
                cursor = conn.execute(
                    "DELETE FROM results WHERE kernel = ? AND version != ?",
                    (kernel, version),
                )
                deleted += cursor.rowcount
            conn.commit()
            conn.execute("VACUUM")
            remaining = conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()[0]
            sp.set(deleted=deleted, remaining=remaining)
            return {"deleted": deleted, "remaining": remaining}

    def integrity_report(self) -> dict:
        """Audit the file: SQLite quick_check plus per-row checksums."""
        with self._lock:
            self.flush()
            conn = self._connection()
            if conn is None:
                if os.path.exists(self.path):
                    # The file is there but SQLite cannot open it.
                    return {
                        "ok": False,
                        "entries": 0,
                        "corrupt": 0,
                        "quick_check": "unreadable",
                    }
                return {"ok": True, "entries": 0, "corrupt": 0, "quick_check": "absent"}
            corrupt = 0
            entries = 0
            try:
                quick = conn.execute("PRAGMA quick_check").fetchone()[0]
                for kernel, version, key_hash, blob, checksum in conn.execute(
                    "SELECT kernel, version, key_hash, value, checksum "
                    "FROM results"
                ):
                    entries += 1
                    if _checksum(blob) != checksum:
                        corrupt += 1
                        self._drop_row(kernel, version, key_hash)
            except sqlite3.Error as exc:
                return {
                    "ok": False,
                    "entries": entries,
                    "corrupt": corrupt,
                    "quick_check": f"error: {exc}",
                }
            return {
                "ok": quick == "ok" and corrupt == 0,
                "entries": entries,
                "corrupt": corrupt,
                "quick_check": quick,
            }


def _current_kernel_versions() -> dict[str, str]:
    """The current version of every kernel registered in this process.

    Imported lazily: the store package must stay importable without the
    engine (and vice versa — the engine imports *us* lazily on the miss
    path).
    """
    from ..engine.cache import KERNEL_VERSIONS

    return dict(KERNEL_VERSIONS)
