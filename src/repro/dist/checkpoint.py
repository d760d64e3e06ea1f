"""Coordinator checkpoint/resume: crash-survivable queue state.

The result store already makes *computation* crash-survivable — every
finished kernel is banked as it lands, so a replayed job is a warm hit.
What dies with a coordinator is the *queue*: which jobs of the plan had
completed, which were still pending or leased, and how many requeues had
happened.  This module snapshots exactly that state atomically alongside
the store, so ``sweep --resume-from CHECKPOINT`` rehydrates the remaining
plan instead of re-planning and re-dispatching everything.

Format: a pickled :class:`CheckpointState` (version-tagged), written via
the classic tmp-file + :func:`os.replace` dance so a crash mid-write
leaves the previous snapshot intact.  The dist wire protocol is already
pickled frames within one trust domain, and the checkpoint file has the
same trust boundary as the store file next to it (never load checkpoints
from untrusted sources).

Completed work is recorded by job *name*, not submission index: names
are the stable identity that survives re-planning, whatever order the
new plan emits its jobs in.  The resume path maps names onto the fresh
plan and drops (with a count) any names the new plan no longer contains.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import dataclass, field

from ..errors import DistError

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointState",
    "CheckpointWriter",
    "load_checkpoint",
    "write_checkpoint",
]

CHECKPOINT_VERSION = 1

#: Default minimum seconds between two checkpoint writes.  Completions
#: can land hundreds per second on small shards; rewriting the file each
#: time would turn the checkpoint into the run's bottleneck.  Crash
#: windows lose at most this much queue progress — and the store has the
#: finished rows anyway, so the loss is re-dispatch time, not compute.
DEFAULT_INTERVAL = 2.0


@dataclass(frozen=True)
class CheckpointState:
    """One atomic snapshot of a coordinator's queue accounting.

    ``fingerprint`` identifies the plan this snapshot belongs to (for
    sweeps: :func:`repro.analysis.sweeps.plan_fingerprint`); resume
    refuses a checkpoint whose fingerprint does not match the re-built
    plan.  ``tasks`` is every planned job name in submission order,
    ``completed`` the names that finished successfully (failures are
    *not* recorded — a resume retries them).
    """

    fingerprint: str
    tasks: tuple[str, ...] = ()
    completed: tuple[str, ...] = ()
    requeues: int = 0
    version: int = CHECKPOINT_VERSION

    @property
    def remaining(self) -> tuple[str, ...]:
        done = set(self.completed)
        return tuple(name for name in self.tasks if name not in done)


def write_checkpoint(path: str | os.PathLike, state: CheckpointState) -> None:
    """Atomically persist ``state`` to ``path`` (tmp + rename)."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str | os.PathLike) -> CheckpointState:
    """Load a checkpoint, failing loudly on anything malformed.

    Raises :class:`~repro.errors.DistError` when the file is missing,
    unreadable, not a checkpoint, or from an incompatible version —
    resuming from garbage must never silently become a fresh run.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            state = pickle.load(fh)
    except FileNotFoundError:
        raise DistError(f"no checkpoint at {path!r}") from None
    except Exception as exc:
        raise DistError(
            f"unreadable checkpoint {path!r}: {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(state, CheckpointState):
        raise DistError(
            f"{path!r} is not a coordinator checkpoint "
            f"(got {type(state).__name__})"
        )
    if state.version != CHECKPOINT_VERSION:
        raise DistError(
            f"checkpoint {path!r} is version {state.version}, "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    return state


@dataclass
class CheckpointWriter:
    """Throttled, thread-safe checkpoint sink for a live coordinator.

    The coordinator (or batch parent) reports progress through
    :meth:`record_done` / :meth:`record_requeues`; the writer folds it
    into the latest :class:`CheckpointState` and rewrites the file at
    most once per ``interval`` seconds.  :meth:`flush` forces a write —
    call it at clean shutdown so the final snapshot is exact.
    """

    path: str
    fingerprint: str
    tasks: tuple[str, ...] = ()
    interval: float = DEFAULT_INTERVAL
    completed: tuple[str, ...] = ()
    """Names completed *before* this run (resume carries them forward so
    an interrupted resume's checkpoint still covers the first run)."""

    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _requeues: int = field(default=0, repr=False)
    _last_write: float = field(default=0.0, repr=False)
    writes: int = 0
    """Checkpoint files actually written (post-throttle), for tests."""

    def __post_init__(self):
        self.path = os.fspath(self.path)
        self.tasks = tuple(self.tasks)
        self._done: list[str] = list(self.completed)
        self._seen: set[str] = set(self._done)

    def state(self) -> CheckpointState:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> CheckpointState:
        return CheckpointState(
            fingerprint=self.fingerprint,
            tasks=self.tasks,
            completed=tuple(self._done),
            requeues=self._requeues,
        )

    def record_done(self, name: str) -> None:
        """One job completed successfully."""
        with self._lock:
            if name not in self._seen:
                self._seen.add(name)
                self._done.append(name)
            self._write_locked(force=False)

    def record_requeues(self, requeues: int) -> None:
        with self._lock:
            self._requeues = int(requeues)
            self._write_locked(force=False)

    def flush(self) -> CheckpointState:
        """Write the current snapshot unconditionally; returns it."""
        with self._lock:
            return self._write_locked(force=True)

    def _write_locked(self, *, force: bool) -> CheckpointState:
        now = time.monotonic()
        state = self._state_locked()
        if not force and now - self._last_write < self.interval:
            return state
        write_checkpoint(self.path, state)
        self._last_write = now
        self.writes += 1
        return state


def resume_completed(
    state: CheckpointState, names, *, fingerprint: str
) -> tuple[set[str], int]:
    """Map a checkpoint's completed names onto a freshly built plan.

    Returns ``(completed_names_present_in_plan, dropped_count)``.
    Raises :class:`~repro.errors.DistError` on a fingerprint mismatch —
    the checkpoint belongs to a different plan (different n, budget,
    class count) and resuming would silently corrupt accounting.
    Completed names absent from the new plan (a checkpoint written by
    an older plan layout) are dropped, not fatal: re-running them costs
    a warm store hit, not a kernel.
    """
    if state.fingerprint != fingerprint:
        raise DistError(
            f"checkpoint fingerprint {state.fingerprint} does not match "
            f"this plan ({fingerprint}); refusing to resume a different "
            "sweep (check --n/--limit/--budget)"
        )
    names = set(names)
    present = {name for name in state.completed if name in names}
    return present, len(state.completed) - len(present)
