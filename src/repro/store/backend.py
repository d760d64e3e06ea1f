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
* **Last-used tracking.**  Every row records when it last served a hit
  (``last_used``), updated in the same flush transactions as new rows;
  :meth:`prune` uses it to evict cold rows by age and to shrink the file
  under a size cap, so long-lived shared store files stay bounded.
* **Integrity.**  Every row carries a SHA-256 checksum of its value blob;
  corrupt or unreadable rows are treated as misses and deleted on sight,
  and :meth:`integrity_report` audits the whole file.
* **Network warm start.**  Two read-only tiers sit around SQLite for
  distributed workers without a shared filesystem: an in-memory *seed*
  tier (:meth:`import_seed_rows`, populated from the coordinator's
  ``store_seed`` stream at handshake; :meth:`export_seed` is the sending
  side) consulted before the database, and an optional *remote* tier
  (:attr:`remote_tier`, a ``store_load`` round trip to the coordinator)
  consulted after a database miss.  Both only ever read — writes still
  ride home inside job results — and both count into the ordinary
  hit statistics plus dedicated ``seed_hits`` / ``remote_hits`` counters.

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
    "StoreDelta",
    "StoreRow",
    "ResultStore",
    "MODES",
]

MODES = ("off", "ro", "rw")

#: Module-private miss sentinel: ``load`` returns it so ``None`` stays a
#: perfectly valid stored value (e.g. "no shelling order exists").
MISS = object()

#: v2 added the ``last_used`` column (prune's eviction signal); v1 files
#: are migrated in place on the first writable connection.
_SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    kernel    TEXT NOT NULL,
    version   TEXT NOT NULL,
    key_hash  TEXT NOT NULL,
    value     BLOB NOT NULL,
    checksum  TEXT NOT NULL,
    created   REAL NOT NULL,
    last_used REAL,
    PRIMARY KEY (kernel, version, key_hash)
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
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

    remote_hits: int = 0
    """Hits served by the remote tier (a ``store_load`` round trip to the
    coordinator mid-run); always also counted in ``hits``."""

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
            remote_hits=self.remote_hits + other.remote_hits,
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
            remote_hits=self.remote_hits - baseline.remote_hits,
        )

    def to_dict(self) -> dict:
        """JSON-ready representation (``store stats --json`` and CI)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "hit_rate": self.hit_rate,
            "seed_hits": self.seed_hits,
            "remote_hits": self.remote_hits,
            "by_kernel": [
                {"kernel": name, "hits": h, "misses": m, "writes": w}
                for name, h, m, w in self.by_kernel
            ],
        }

    def as_dict(self) -> dict:
        """Alias for :meth:`to_dict` — the unified stats-surface name
        shared with ``CacheStats`` and the dist metrics (what the
        :class:`repro.obs.MetricsRegistry` providers call)."""
        return self.to_dict()

    def describe(self) -> str:
        lines = [
            f"result store: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), {self.writes} writes"
        ]
        if self.seed_hits or self.remote_hits:
            lines.append(
                f"  network warm start: {self.seed_hits} seeded hit(s), "
                f"{self.remote_hits} remote load(s)"
            )
        for name, hits, misses, writes in self.by_kernel:
            total = hits + misses
            rate = hits / total if total else 0.0
            lines.append(
                f"  {name}: {hits}/{total} hits ({rate:.0%}), {writes} writes"
            )
        return "\n".join(lines)


#: One pending/persisted row: ``(kernel, version, key_hash, blob, checksum,
#: created, last_used)`` — plain picklable tuples so workers and seeding
#: coordinators can ship them over the wire.  Freshly computed rows start
#: with ``last_used == created``; rows exported from a database carry the
#: real recency so seeding/importing never resets ``prune``'s signal.
#: Legacy 6-tuples (pre last-used) are still accepted everywhere.
StoreRow = tuple[str, str, str, bytes, str, float, float]


def _row_last_used(row) -> float:
    """A row's ``last_used``, tolerating legacy 6-tuples and ``None``."""
    if len(row) > 6 and row[6] is not None:
        return row[6]
    return row[5]


@dataclass(frozen=True)
class StoreDelta:
    """A worker's exportable store state: rows, touches, a stats delta.

    The picklable unit the distributed workers ship to the coordinator
    for activity that happened *outside* any job (warmup, stragglers):
    per-job rows and stats already ride inside each ``JobResult``.
    """

    rows: tuple[StoreRow, ...] = ()
    stats: "StoreStats | None" = None
    touches: tuple = ()
    """Last-used refreshes (``((kernel, version, key_hash), when)``) for
    rows this worker served from the store — prune's recency signal."""


@dataclass
class _StoreCounters:
    hits: int = 0
    misses: int = 0
    writes: int = 0
    seed_hits: int = 0
    remote_hits: int = 0


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
        #: SQLite — flush defers, rows accumulate for :meth:`drain_pending`
        #: / :meth:`export_delta`, exactly like a daemonic pool worker.
        self.worker_mode = False
        #: Incremented by a dist coordinator serving from this process:
        #: an in-process worker must then leave ``worker_mode`` off, or
        #: it would stall the coordinator's own flushes.
        self.coordinator_owned = 0
        #: Optional remote tier: an object with ``load(kernel, version,
        #: key_hash) -> StoreRow | None`` consulted after a SQLite miss
        #: (distributed workers point it at the coordinator's store over
        #: the job connection).  Rows it returns are installed into the
        #: seed tier so a repeat lookup never pays the round trip again.
        self.remote_tier = None
        self._seed: dict[tuple[str, str, str], StoreRow] = {}
        self._pending: dict[tuple[str, str, str], StoreRow] = {}
        self._touched: dict[tuple[str, str, str], float] = {}
        self._counters: dict[str, _StoreCounters] = {}
        self._absorbed = StoreStats()
        self._conn: sqlite3.Connection | None = None
        self._conn_pid: int | None = None
        self._broken_pid: int | None = None
        self._lock = RLock()
        # Which layer answered this thread's most recent load() — the
        # kernel wrapper reads it for trace-span tier attribution.
        # Thread-local because the dist coordinator serves loads from
        # connection-handler threads concurrently with local kernels.
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
        warm-start tier), ``"remote"`` (coordinator round trip), or
        ``None`` after a miss.  Consumed by :func:`~repro.engine.cache.
        cached_kernel` to stamp the ``tier`` attribute on kernel spans.
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
                # check_same_thread=False: the dist coordinator flushes
                # from its connection-handler threads; every use of the
                # connection is serialised by self._lock, which is the
                # thread-safety SQLite's own check would otherwise insist
                # on seeing.
                conn = sqlite3.connect(
                    self.path, timeout=30.0, check_same_thread=False
                )
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                if self.writable:
                    conn.executescript(_SCHEMA)
                    self._migrate(conn)
                    conn.execute(
                        "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                        ("schema_version", str(_SCHEMA_VERSION)),
                    )
                    conn.commit()
            except (sqlite3.Error, OSError):
                self._broken_pid = pid
                return None
            self._conn = conn
            self._conn_pid = pid
            return conn

    @staticmethod
    def _migrate(conn: sqlite3.Connection) -> None:
        """Bring a pre-existing file up to the current schema in place.

        v1 -> v2: add ``last_used``, seeding it from ``created`` so prune's
        age cap is immediately meaningful on migrated files.
        """
        columns = {
            row[1] for row in conn.execute("PRAGMA table_info(results)")
        }
        if "last_used" not in columns:
            conn.execute("ALTER TABLE results ADD COLUMN last_used REAL")
            conn.execute("UPDATE results SET last_used = created")

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
                    self._touch(full_key)
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
                            self._touch(full_key)
                            self._served_by("store")
                            return value
            if self.remote_tier is None:
                counters.misses += 1
                return MISS
        # Remote fallthrough runs *outside* the store lock: the round trip
        # can block for the full network timeout against a stalled
        # coordinator, and holding the RLock would freeze every other
        # thread's store access (including loads that would hit locally)
        # for the duration.
        return self._remote_fallthrough(full_key)

    def _touch(self, full_key: tuple[str, str, str]) -> None:
        """Record a recency signal for prune (next flush applies it).

        Workers ship theirs home with each job (:meth:`drain_touches`)
        since their own flush defers — including touches for *seeded*
        rows, whose home copy lives in the coordinator's database.  A
        worker-mode store records touches even in ``ro`` mode: this
        process never flushes them, but the coordinator's writable store
        does, and an ``ro`` warm-start worker's hits are exactly the
        recency ``store prune`` must keep seeing.
        """
        if self.writable or self.worker_mode:
            self._touched[full_key] = time.time()

    def _remote_fallthrough(self, full_key: tuple[str, str, str]) -> object:
        """Last tier before computing: ask the remote store, if any.

        A returned row is checksum-verified and installed into the seed
        tier, so results banked mid-run by *other* workers are fetched at
        most once per worker.  Any failure (miss, torn connection,
        corrupt row) degrades to a plain miss — persistence stays
        best-effort.

        Called *without* the store lock held — the network round trip
        must not serialize the store — and re-takes it only to install
        the row and book the counters.
        """
        tier = self.remote_tier
        value = MISS
        row = None
        if tier is not None:
            try:
                row = tier.load(*full_key)
            except Exception:
                row = None
            if (
                row is not None
                and len(row) >= 6
                and _checksum(row[3]) == row[4]
            ):
                try:
                    value = pickle.loads(row[3])
                except Exception:
                    value = MISS
        with self._lock:
            counters = self._counters.setdefault(full_key[0], _StoreCounters())
            if value is MISS:
                counters.misses += 1
                return MISS
            self._seed[full_key] = tuple(row)
            counters.hits += 1
            counters.remote_hits += 1
            self._touch(full_key)
            self._served_by("remote")
            return value

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
        now = time.time()
        row: StoreRow = (
            kernel, version, key_hash, blob, _checksum(blob), now, now
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

        Also applies the accumulated last-used touches in the same
        transaction.  Inside a batch/dist worker (daemonic process or
        :attr:`worker_mode`) this is a no-op that *keeps* the pending
        rows: the parent process is the only database writer, and the
        batch driver or coordinator ships the worker's rows home with its
        job results (:meth:`drain_pending` / :meth:`export_delta`).
        """
        if self._defer_writes():
            return 0
        with self._lock:
            if not self.writable:
                # Dropping unwritable pendings keeps ro/off stores bounded.
                count = len(self._pending)
                self._pending.clear()
                self._touched.clear()
                return count
            if not self._pending and not self._touched:
                return 0
            conn = self._connection()
            if conn is None:
                # Unreadable database: best-effort persistence gives up on
                # these rows rather than growing the buffer forever.
                self._pending.clear()
                self._touched.clear()
                return 0
            rows = list(self._pending.values())
            with TRACER.span(
                "store:flush", cat="store",
                rows=len(rows), touches=len(self._touched),
            ):
                if rows:
                    # Upsert rather than replace: a duplicate arrival (e.g.
                    # a requeued job recomputed elsewhere, or an imported
                    # delta of rows this file already holds) must never
                    # move a hot row's last_used backwards.
                    conn.executemany(
                        "INSERT INTO results "
                        "(kernel, version, key_hash, value, checksum, created, "
                        "last_used) VALUES (?, ?, ?, ?, ?, ?, ?) "
                        "ON CONFLICT(kernel, version, key_hash) DO UPDATE SET "
                        "value = excluded.value, checksum = excluded.checksum, "
                        "last_used = MAX(COALESCE(results.last_used, "
                        "results.created), excluded.last_used)",
                        [row[:6] + (_row_last_used(row),) for row in rows],
                    )
                # Touches for rows that are also pending were just written
                # with last_used = created; the UPDATE below refreshes them.
                if self._touched:
                    conn.executemany(
                        "UPDATE results SET last_used = ? "
                        "WHERE kernel = ? AND version = ? AND key_hash = ?",
                        [
                            (when, kernel, version, key_hash)
                            for (kernel, version, key_hash), when
                            in self._touched.items()
                        ],
                    )
                conn.commit()
            self._pending.clear()
            self._touched.clear()
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

    def drain_touches(self) -> tuple:
        """Remove and return the accumulated last-used touches.

        A worker's flush never runs, so its touches ride home with each
        job result (alongside :meth:`drain_pending`'s rows) and the
        parent applies them via :meth:`absorb_touches` — otherwise rows
        served inside pool/dist workers would never look recently used
        and :meth:`prune` would evict the hottest shards first.
        """
        with self._lock:
            touches = tuple(self._touched.items())
            self._touched.clear()
            return touches

    def absorb_touches(self, touches) -> None:
        """Merge drained worker touches for this process's next flush."""
        if not touches or not self.writable:
            return
        with self._lock:
            for key, when in touches:
                if self._touched.get(key, 0.0) < when:
                    self._touched[key] = when

    def export_delta(self, since: "StoreStats | None" = None) -> StoreDelta:
        """Drain rows + touches plus a stats delta into one picklable unit.

        ``since`` is the baseline the stats delta is computed against
        (``None`` means "everything this store has seen").  Distributed
        workers ship these to the coordinator for activity outside any
        job; :meth:`import_delta` is the receiving side.
        """
        with self._lock:
            rows = self.drain_pending()
            touches = self.drain_touches()
            stats = self.stats()
            if since is not None:
                stats = stats.delta_since(since)
            return StoreDelta(rows=rows, stats=stats, touches=touches)

    def import_delta(self, delta: object, *, stats: bool = True) -> None:
        """Absorb a worker's :class:`StoreDelta` and flush its rows.

        ``stats=False`` skips the statistics merge — used when the delta
        came from a worker in this very process, whose activity already
        sits in this store's live counters.
        """
        if not isinstance(delta, StoreDelta):
            return
        self.absorb_touches(delta.touches)
        if delta.rows:
            self.absorb_rows(delta.rows)
            self.flush()
        if (
            stats
            and delta.stats is not None
            and delta.stats.lookups + delta.stats.writes
        ):
            self.absorb_stats(delta.stats)

    def absorb_rows(self, rows: tuple[StoreRow, ...] | list[StoreRow]) -> None:
        """Queue rows drained from a worker for this process's next flush."""
        if not rows or not self.writable:
            return
        with self._lock:
            for row in rows:
                self._pending[(row[0], row[1], row[2])] = row

    def absorb_stats(self, delta: StoreStats) -> None:
        """Fold a worker's statistics delta into this store's totals."""
        with self._lock:
            self._absorbed = self._absorbed.merge(delta)

    # ------------------------------------------------------------------
    # Network warm start (distributed seeding / remote loads)
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
                        if len(row) < 6 or _checksum(row[3]) != row[4]:
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

        ``versions`` maps kernel name to an implementation version (or a
        tuple of versions, for kernels with live variants); only matching
        rows ship.  ``None`` means "every kernel registered in this
        process, at its current version(s)" — so rows orphaned by an
        edited kernel never travel.  Chunks are bounded by row count and
        payload bytes, and the database is locked per chunk only, so a
        huge store streams as many modest frames without stalling the
        store for concurrent flushes.
        """
        if versions is None:
            versions = _current_kernel_versions()
        pairs = sorted(
            (kernel, version)
            for kernel, value in versions.items()
            for version in ((value,) if isinstance(value, str) else tuple(value))
        )
        if not pairs:
            return
        # The filter lives in the WHERE clause: a store full of
        # stale-version or unregistered-kernel rows must not have their
        # blobs fetched just to be discarded, once per connecting worker.
        placeholders = ", ".join(["(?, ?)"] * len(pairs))
        query = (
            "SELECT rowid, kernel, version, key_hash, value, checksum, "
            "created, COALESCE(last_used, created) FROM results "
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
            for rowid, kernel, version, key_hash, blob, checksum, created, last_used in fetched:
                last_rowid = rowid
                chunk.append(
                    (kernel, version, key_hash, blob, checksum, created,
                     last_used)
                )
                size += len(blob)
                if size >= chunk_bytes:
                    yield chunk
                    chunk, size = [], 0
            if chunk:
                yield chunk

    def seed_digest(self, versions=None) -> dict[tuple[str, str], str]:
        """Per-``(kernel, version)`` content digest of the answerable rows.

        The currency of *incremental seeding*: a reconnecting worker puts
        its digests in the ``hello`` frame, the coordinator computes its
        own with the same method, and any tier whose digest matches is
        skipped by the seed stream — only new rows travel.  The digest
        covers every row this store can answer from (database, pending
        overlay, and the in-memory seed tier) as ``"{count}:{hash16}"``
        over the sorted key hashes, so it is order- and source-agnostic:
        the same logical row set always digests identically on both
        sides.  ``versions`` filters exactly like :meth:`export_seed`;
        tiers with no rows are omitted.
        """
        with self._lock:
            if not self.active:
                return {}
            if versions is None:
                versions = _current_kernel_versions()
            pairs = sorted(
                (kernel, version)
                for kernel, value in versions.items()
                for version in (
                    (value,) if isinstance(value, str) else tuple(value)
                )
            )
            if not pairs:
                return {}
            keys: dict[tuple[str, str], set[str]] = {p: set() for p in pairs}
            conn = self._connection()
            if conn is not None:
                placeholders = ", ".join(["(?, ?)"] * len(pairs))
                params = [value for pair in pairs for value in pair]
                try:
                    rows = conn.execute(
                        "SELECT kernel, version, key_hash FROM results "
                        f"WHERE (kernel, version) IN (VALUES {placeholders})",
                        params,
                    ).fetchall()
                except sqlite3.Error:
                    rows = []
                for kernel, version, key_hash in rows:
                    keys[(kernel, version)].add(key_hash)
            for overlay in (self._pending, self._seed):
                for kernel, version, key_hash in overlay:
                    pair = (kernel, version)
                    if pair in keys:
                        keys[pair].add(key_hash)
            digests: dict[tuple[str, str], str] = {}
            for pair, hashes in keys.items():
                if not hashes:
                    continue
                acc = hashlib.sha256()
                for key_hash in sorted(hashes):
                    acc.update(key_hash.encode("ascii"))
                    acc.update(b";")
                digests[pair] = f"{len(hashes)}:{acc.hexdigest()[:16]}"
            return digests

    def load_row(self, kernel: str, version: str, key_hash: str):
        """The raw stored row (pending overlay included), or ``None``.

        The coordinator's answer to a worker's ``store_load``: unlike
        :meth:`load` it ships the pickled blob untouched and counts no
        hit/miss — serving a remote lookup is not a local kernel event —
        but it does refresh the row's recency, since a row another worker
        needed is demonstrably hot.
        """
        with self._lock:
            if not self.active:
                return None
            full_key = (kernel, version, key_hash)
            row = self._pending.get(full_key)
            if row is not None:
                return row[:6] + (_row_last_used(row),)
            conn = self._connection()
            if conn is None:
                return None
            try:
                fetched = conn.execute(
                    "SELECT value, checksum, created, "
                    "COALESCE(last_used, created) FROM results "
                    "WHERE kernel = ? AND version = ? AND key_hash = ?",
                    (kernel, version, key_hash),
                ).fetchone()
            except sqlite3.Error:
                return None
            if fetched is None:
                return None
            blob, checksum, created, last_used = fetched
            if _checksum(blob) != checksum:
                self._drop_row(kernel, version, key_hash)
                return None
            self._touch(full_key)
            return (kernel, version, key_hash, blob, checksum, created,
                    last_used)

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
                remote_hits=sum(
                    c.remote_hits for c in self._counters.values()
                ),
            )
            return local.merge(self._absorbed)

    def reset_stats(self) -> None:
        with self._lock:
            self._counters.clear()
            self._absorbed = StoreStats()

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
                is_stale = known is not None and version not in known
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
        the row's version matches *none* of the kernel's live versions
        (kernels with implementation variants have one live version per
        variant); rows of unknown kernels are kept (another tool or an
        older checkout may still want them).
        """
        if not self.writable:
            raise StoreError("vacuum needs a writable (rw) store")
        with self._lock, TRACER.span("store:vacuum", cat="store") as sp:
            self.flush()
            conn = self._connection()
            if conn is None:
                raise StoreError(f"store file {self.path} is unreadable")
            deleted = 0
            for kernel, versions in _current_kernel_versions().items():
                placeholders = ", ".join("?" * len(versions))
                cursor = conn.execute(
                    "DELETE FROM results WHERE kernel = ? "
                    f"AND version NOT IN ({placeholders})",
                    (kernel, *versions),
                )
                deleted += cursor.rowcount
            conn.commit()
            conn.execute("VACUUM")
            remaining = conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()[0]
            sp.set(deleted=deleted, remaining=remaining)
            return {"deleted": deleted, "remaining": remaining}

    def prune(
        self,
        *,
        max_age_days: float | None = None,
        max_size_mb: float | None = None,
    ) -> dict:
        """Evict cold rows so long-lived shared store files stay bounded.

        Two independent caps, either or both:

        * ``max_age_days`` — delete rows whose ``last_used`` (falling back
          to ``created`` for never-read rows) is older than the cutoff;
        * ``max_size_mb`` — while the database file exceeds the cap,
          delete the least recently used rows in batches and ``VACUUM``
          until it fits (or the store is empty).

        Returns ``{"deleted_age", "deleted_size", "remaining",
        "file_bytes"}``.  Complements :meth:`vacuum`, which evicts by
        *staleness* (orphaned kernel versions) rather than by recency.
        """
        if max_age_days is None and max_size_mb is None:
            raise StoreError("prune needs max_age_days and/or max_size_mb")
        if max_age_days is not None and max_age_days < 0:
            raise StoreError(f"max_age_days must be >= 0, got {max_age_days}")
        if max_size_mb is not None and max_size_mb <= 0:
            raise StoreError(f"max_size_mb must be positive, got {max_size_mb}")
        if not self.writable:
            raise StoreError("prune needs a writable (rw) store")
        with self._lock, TRACER.span("store:prune", cat="store") as sp:
            self.flush()
            conn = self._connection()
            if conn is None:
                raise StoreError(f"store file {self.path} is unreadable")
            deleted_age = 0
            if max_age_days is not None:
                cutoff = time.time() - max_age_days * 86400.0
                cursor = conn.execute(
                    "DELETE FROM results "
                    "WHERE COALESCE(last_used, created) < ?",
                    (cutoff,),
                )
                deleted_age = cursor.rowcount
            conn.commit()
            conn.execute("VACUUM")
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            deleted_size = 0
            if max_size_mb is not None:
                cap = int(max_size_mb * (1 << 20))
                while os.path.getsize(self.path) > cap:
                    # Evict the least recently used rows, but only enough
                    # of them to cover the overshoot (scaled up for page
                    # and index overhead the value-length estimate cannot
                    # see), so a barely-over file loses barely any rows
                    # rather than a fixed-size chunk.  The candidate fetch
                    # is windowed: a multi-GB store must not materialise
                    # its whole table per iteration.
                    overshoot = os.path.getsize(self.path) - cap
                    candidates = conn.execute(
                        "SELECT kernel, version, key_hash, LENGTH(value) "
                        "FROM results "
                        "ORDER BY COALESCE(last_used, created) ASC "
                        "LIMIT 4096"
                    ).fetchall()
                    if not candidates:
                        break  # empty schema still over cap: nothing to do
                    victims = []
                    freed = 0
                    for kernel, version, key_hash, nbytes in candidates:
                        victims.append((kernel, version, key_hash))
                        freed += (nbytes or 0) + 512
                        if freed >= overshoot * 1.25:
                            break
                    conn.executemany(
                        "DELETE FROM results "
                        "WHERE kernel = ? AND version = ? AND key_hash = ?",
                        victims,
                    )
                    deleted_size += len(victims)
                    conn.commit()
                    conn.execute("VACUUM")
                    conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            remaining = conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()[0]
            sp.set(
                deleted_age=deleted_age,
                deleted_size=deleted_size,
                remaining=remaining,
            )
            return {
                "deleted_age": deleted_age,
                "deleted_size": deleted_size,
                "remaining": remaining,
                "file_bytes": os.path.getsize(self.path),
            }

    def clear(self) -> int:
        """Delete every stored result; returns the number removed."""
        if not self.writable:
            raise StoreError("clear needs a writable (rw) store")
        with self._lock:
            self._pending.clear()
            self._seed.clear()
            conn = self._connection()
            if conn is None:
                raise StoreError(f"store file {self.path} is unreadable")
            removed = conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
            conn.execute("DELETE FROM results")
            conn.commit()
            return removed

    def export(self, destination: str) -> int:
        """Copy the store to ``destination`` via SQLite's backup API.

        Flushes first so the copy is complete; returns the copied entry
        count.  The destination is a fully usable store file.
        """
        with self._lock:
            self.flush()
            conn = self._connection()
            if conn is None:
                raise StoreError(f"nothing to export at {self.path}")
            parent = os.path.dirname(os.path.abspath(destination))
            os.makedirs(parent, exist_ok=True)
            target = sqlite3.connect(destination)
            try:
                conn.backup(target)
                return target.execute(
                    "SELECT COUNT(*) FROM results"
                ).fetchone()[0]
            finally:
                target.close()

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


def _current_kernel_versions() -> dict[str, tuple[str, ...]]:
    """Every live store version of every kernel registered in this process.

    Most kernels map to a 1-tuple of their pinned version; kernels with
    declared implementation variants (the CSP compute backends) map to
    one ``"{version}+{suffix}"`` entry per variant — all of them count as
    current, so vacuum/staleness never discards another backend's rows.

    Imported lazily: the store package must stay importable without the
    engine (and vice versa — the engine imports *us* lazily on the miss
    path).
    """
    from ..engine.cache import KERNEL_VERSION_VARIANTS

    return dict(KERNEL_VERSION_VARIANTS)
