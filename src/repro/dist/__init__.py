"""Distributed execution: the batch driver generalised beyond one host.

``run_batch(tasks, jobs=N)`` fans jobs over one machine's cores;
``run_batch(tasks, executor=DistExecutor("HOST:PORT"))`` runs the same
jobs on a TCP work queue spanning hosts:

* :mod:`~repro.dist.protocol` — length-prefixed pickled frames with a
  version handshake (one trust domain; never expose the port publicly);
* :mod:`~repro.dist.coordinator` — serves jobs, collects results, owns
  every SQLite write (the PR 2 parent-flush invariant, cluster-wide),
  requeues a job at once when its worker's connection drops, and when
  a connected worker's lease runs out without a heartbeat;
* :mod:`~repro.dist.worker` — ``python -m repro worker --connect
  HOST:PORT``; executes jobs through the same kernel-cache/result-store
  tiers as local runs and streams results + store-row deltas home;
* :mod:`~repro.dist.executor` — :class:`DistExecutor`, which owns one
  coordinator per batch, and the ``dist status`` probe client.

Delivery is at-least-once with idempotent jobs: results are pure
functions of content-addressed inputs, so a requeued job's replay is
harmless and the first result per job wins.  Equivalence tests pin that
serial, pool, and distributed execution produce identical results.

Network warm start: the coordinator's store is the warm substrate for
the whole cluster.  On handshake it streams its relevant rows into each
remote worker's in-memory seed tier.  The seed tier is read-only; the
cluster-wide single-writer invariant stands.
:func:`probe_status` (CLI: ``python -m repro dist status HOST:PORT``)
reports queue depth, leases, per-worker throughput, and rows seeded
against a live coordinator.

Survivability: requeue covers a lost worker, and the store covers a
lost coordinator.  The coordinator banks every job as it lands, so
rerunning the same sweep against the same store recomputes nothing that
finished before the crash.
"""

from .executor import (
    DistExecutor,
    parse_address,
    probe_status,
    render_status_json,
    watch_status,
)
from .coordinator import Coordinator
from .protocol import PROTOCOL_VERSION, ProtocolError
from .worker import WorkerReport, run_worker, run_workers

__all__ = [
    "Coordinator",
    "DistExecutor",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "WorkerReport",
    "parse_address",
    "probe_status",
    "render_status_json",
    "run_worker",
    "run_workers",
    "watch_status",
]
