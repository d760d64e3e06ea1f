"""Worker supervision: keep N workers alive across crashes.

``python -m repro worker --connect HOST:PORT --spawn auto`` runs this
instead of a fixed fleet: :class:`Supervisor` forks ``workers`` worker
processes (``--spawn auto`` sizes to the machine's cores) and then
watches them.  A worker that *reports* — the coordinator said ``done``,
vanished cleanly, or the worker raised a real :class:`DistError` — is
finished: its slot retires.  A worker that **dies without reporting**
(SIGKILL, OOM, segfault) crashed mid-service, so the supervisor respawns
its slot after a jittered exponential backoff, up to ``max_respawns``
generations per slot.

A worker report also means the *coordinator* is winding down — it
broadcasts ``done`` to everyone when its batch completes, and a vanished
coordinator ends every slot the same way.
So the first report starts a short stand-down grace: pending respawns
are cancelled and slots still trying to connect (a respawn racing batch
completion) are terminated and counted as ``stood_down``, not as
failures — there is nothing left for them to serve.

Respawns are cheap by design, not by luck: a respawned worker runs the
ordinary :func:`~repro.dist.worker.run_worker` path, so its ``hello``
carries the local store's incremental ``seed_digest`` — the coordinator
streams only rows the worker does not already hold — and a ``respawn``
generation, which the coordinator counts into ``dist status`` (the
``respawns`` field) so churn is visible from either side.  Backoff is
jittered (uniform up-scatter) so a fleet killed together does not
reconnect as a thundering herd.

The supervisor registers a ``supervisor`` stats provider with
:data:`~repro.obs.metrics.METRICS` while running: target worker count,
workers currently alive, respawns so far.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import socket
import time
from dataclasses import dataclass, field
from queue import Empty

from ..errors import DistError
from ..obs.metrics import METRICS
from .worker import WorkerReport, run_worker

__all__ = [
    "Supervisor",
    "SupervisorReport",
    "resolve_spawn",
]


def resolve_spawn(spec: str | int) -> int:
    """Map ``--spawn auto|N`` onto a worker count.

    ``auto`` sizes to the machine (``os.cpu_count()``); an integer is
    taken literally.  Anything else — including non-positive counts — is
    a :class:`~repro.errors.DistError`, mirroring ``--jobs`` validation.
    """
    if isinstance(spec, str):
        spec = spec.strip().lower()
        if spec == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            spec = int(spec)
        except ValueError:
            raise DistError(
                f"--spawn must be 'auto' or a positive integer, got {spec!r}"
            ) from None
    if spec < 1:
        raise DistError(f"--spawn must be positive, got {spec}")
    return int(spec)


#: Seconds after the first worker report before remaining slots are
#: stood down.  Long enough for the sibling ``done`` farewells already
#: in flight to land, short enough that a respawn racing batch
#: completion does not sit in connect-retry against a dead address.
STAND_DOWN_GRACE = 1.0


@dataclass(frozen=True)
class SupervisorReport:
    """What a supervision session did, slot by slot."""

    target: int
    """Worker slots the supervisor was asked to keep alive."""
    launched: int
    """Worker processes started in total (``target`` + respawns)."""
    respawns: int
    """Crashed slots restarted (deaths without a worker report)."""
    stood_down: int = 0
    """Slots retired benignly after the coordinator finished: cancelled
    pending respawns and workers that never got to connect."""
    reports: tuple[WorkerReport, ...] = ()
    errors: tuple[str, ...] = ()
    """Slots that ended in failure: real worker errors (unreachable
    coordinator, version reject) and slots that exhausted their respawn
    budget."""
    elapsed: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.errors

    @property
    def completed(self) -> int:
        return sum(r.completed for r in self.reports)

    def describe(self) -> str:
        lines = [
            f"supervisor: {self.target} worker slot(s), "
            f"{self.launched} launch(es), {self.respawns} respawn(s), "
            f"{self.stood_down} stood down, {self.elapsed:.1f}s"
        ]
        lines.extend(f"  {report.describe()}" for report in self.reports)
        lines.extend(f"  error: {error}" for error in self.errors)
        return "\n".join(lines)


def _supervised_worker(host, port, worker_id, retry, queue, rank, respawn):
    """Child entry point: tag the slot's report with its rank."""
    try:
        report = run_worker(
            host, port, worker_id=worker_id, retry=retry, respawn=respawn
        )
        queue.put((rank, report))
    except Exception as exc:
        queue.put((rank, DistError(str(exc))))


@dataclass
class _Slot:
    """One supervised worker slot across its restart generations."""

    rank: int
    process: object = None
    generation: int = 0
    """0 before the first launch; each (re)launch increments it, and
    generations above 1 announce themselves to the coordinator as
    respawns."""
    respawn_at: float | None = None
    """Monotonic time the pending respawn is due, None when not waiting."""
    finished: bool = False


class Supervisor:
    """Keep ``workers`` worker processes serving one coordinator.

    Parameters
    ----------
    host, port:
        The coordinator to serve, as for
        :func:`~repro.dist.worker.run_worker`.
    workers:
        Worker slots to keep alive (see :func:`resolve_spawn`).
    retry:
        Per-worker connection retry budget, seconds.
    max_respawns:
        Restart budget *per slot*; a slot that crashes more often is
        abandoned with an error (a worker dying this reliably is a real
        problem a blind restart loop would only mask).
    backoff, backoff_max, jitter:
        Respawn delay: ``min(backoff * 2**(crashes-1), backoff_max)``
        stretched by up to ``jitter`` (fraction, uniform) so restarts
        de-synchronise.
    log:
        Optional one-line progress sink (launches, crashes, respawns).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        workers: int = 1,
        retry: float = 10.0,
        max_respawns: int = 3,
        backoff: float = 0.5,
        backoff_max: float = 30.0,
        jitter: float = 0.5,
        log=None,
    ):
        if workers < 1:
            raise DistError(f"workers must be positive, got {workers}")
        if max_respawns < 0:
            raise DistError(
                f"max_respawns must be non-negative, got {max_respawns}"
            )
        self._host = host
        self._port = port
        self._workers = workers
        self._retry = retry
        self._max_respawns = max_respawns
        self._backoff = backoff
        self._backoff_max = backoff_max
        self._jitter = jitter
        self._log = log or (lambda message: None)
        self.launched = 0
        self.respawns = 0
        self.stood_down = 0
        self.reports: list[WorkerReport] = []
        self.errors: list[str] = []
        self._slots: list[_Slot] = []
        self._stand_down_at: float | None = None

    # ------------------------------------------------------------------
    def pids(self) -> list[int]:
        """PIDs of the currently live worker processes (chaos hooks)."""
        return [
            slot.process.pid
            for slot in self._slots
            if slot.process is not None and slot.process.is_alive()
        ]

    def alive(self) -> int:
        return len(self.pids())

    def stats(self) -> dict:
        """The ``supervisor`` stats provider payload."""
        return {
            "target": self._workers,
            "alive": self.alive(),
            "launched": self.launched,
            "respawns": self.respawns,
            "stood_down": self.stood_down,
            "finished": sum(1 for slot in self._slots if slot.finished),
        }

    # ------------------------------------------------------------------
    def _delay(self, crashes: int) -> float:
        base = min(
            self._backoff * (2 ** max(crashes - 1, 0)), self._backoff_max
        )
        return base * (1.0 + random.uniform(0.0, self._jitter))

    def _launch(self, slot: _Slot, context, queue, base_name: str) -> None:
        slot.generation += 1
        slot.respawn_at = None
        respawn = slot.generation - 1  # generation 1 is a first launch
        slot.process = context.Process(
            target=_supervised_worker,
            args=(
                self._host,
                self._port,
                f"{base_name}.{slot.rank}g{slot.generation}",
                self._retry,
                queue,
                slot.rank,
                respawn,
            ),
            daemon=False,
        )
        slot.process.start()
        self.launched += 1
        if respawn:
            self._log(
                f"supervisor: respawned slot {slot.rank} "
                f"(generation {slot.generation}, pid {slot.process.pid})"
            )
        else:
            self._log(
                f"supervisor: launched slot {slot.rank} "
                f"(pid {slot.process.pid})"
            )

    def _record(self, rank: int, item) -> None:
        """Fold one queued child report into the session's accounting."""
        slot = self._slots[rank]
        if slot.finished:
            # A stood-down child's retry-exhaustion error can still be
            # in flight when the slot is retired; it is not news.
            return
        slot.finished = True
        if isinstance(item, DistError):
            if self._stand_down_at is not None:
                # The coordinator already finished; a slot that could
                # not reach it is the expected wind-down, not a failure.
                self.stood_down += 1
                self._log(f"supervisor: slot {rank} stood down ({item})")
            else:
                self.errors.append(f"slot {rank}: {item}")
        else:
            self.reports.append(item)
            if self._stand_down_at is None:
                # ``done`` is broadcast fleet-wide: the coordinator is
                # winding down for everyone, not just this slot.
                self._stand_down_at = time.monotonic() + STAND_DOWN_GRACE

    def _stand_down(self, slot: _Slot) -> None:
        """Retire a slot benignly after the coordinator has finished."""
        process = slot.process
        if (
            slot.respawn_at is None
            and process is not None
            and process.is_alive()
        ):
            process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck child
                process.kill()
                process.join(timeout=2.0)
        slot.finished = True
        self.stood_down += 1
        self._log(
            f"supervisor: stood down slot {slot.rank} "
            "(coordinator finished)"
        )

    def run(self) -> SupervisorReport:
        """Supervise until every slot has finished or been abandoned."""
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            context = multiprocessing.get_context()
        queue = context.Queue()
        base_name = f"{socket.gethostname()}:{os.getpid()}"
        start = time.monotonic()
        self._slots = [_Slot(rank=rank) for rank in range(self._workers)]
        METRICS.register_stats("supervisor", self.stats)
        for slot in self._slots:
            self._launch(slot, context, queue, base_name)
        try:
            while not all(slot.finished for slot in self._slots):
                try:
                    rank, item = queue.get(timeout=0.25)
                except Empty:
                    pass
                else:
                    self._record(rank, item)
                    continue
                now = time.monotonic()
                standing_down = (
                    self._stand_down_at is not None
                    and now >= self._stand_down_at
                )
                for slot in self._slots:
                    if slot.finished:
                        continue
                    if standing_down:
                        self._stand_down(slot)
                        continue
                    if slot.respawn_at is not None:
                        if now >= slot.respawn_at:
                            self._launch(slot, context, queue, base_name)
                        continue
                    process = slot.process
                    if process is not None and not process.is_alive():
                        # Dead without a report: crashed.  (A report may
                        # still be in flight on the queue; one more get()
                        # round trips before this branch re-fires because
                        # the queue drain above runs first each loop.)
                        try:
                            rank2, item = queue.get(timeout=0.25)
                        except Empty:
                            pass
                        else:
                            self._record(rank2, item)
                            continue
                        if slot.finished:
                            continue
                        crashes = slot.generation  # every death so far
                        if crashes > self._max_respawns:
                            slot.finished = True
                            self.errors.append(
                                f"slot {slot.rank}: worker died without "
                                f"reporting {crashes} time(s); respawn "
                                "budget exhausted"
                            )
                            continue
                        self.respawns += 1
                        delay = self._delay(crashes)
                        slot.respawn_at = now + delay
                        self._log(
                            f"supervisor: slot {slot.rank} died without "
                            f"reporting (pid {process.pid}); respawning "
                            f"in {delay:.2f}s"
                        )
            for slot in self._slots:
                if slot.process is not None:
                    slot.process.join(timeout=5.0)
        finally:
            elapsed = time.monotonic() - start
        return SupervisorReport(
            target=self._workers,
            launched=self.launched,
            respawns=self.respawns,
            stood_down=self.stood_down,
            reports=tuple(self.reports),
            errors=tuple(self.errors),
            elapsed=elapsed,
        )
