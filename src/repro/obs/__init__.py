"""repro.obs — unified tracing for every execution tier.

* :data:`TRACER` — the structured tracing hot path
  (:mod:`repro.obs.trace`).  Disabled by default; enable with
  ``REPRO_TRACE=FILE``, ``--trace FILE`` on the CLIs, or
  :func:`configure_trace`.
* :func:`write_trace` — Chrome ``trace_event`` export.  The writer and
  the offline aggregator behind ``python -m repro trace summary`` are
  in :mod:`repro.obs.export`, which this module imports only to write.

This module imports only the stdlib and :mod:`repro.obs.trace` at module
scope: the instrumented layers (``engine.cache``, ``store.backend``,
``dist.*``) import *us*.
"""

from __future__ import annotations

import atexit
import os

from .trace import (
    TRACER,
    Tracer,
    TraceSpan,
    estimate_clock_offset,
)

__all__ = [
    "TRACER",
    "Tracer",
    "TraceSpan",
    "estimate_clock_offset",
    "configure_trace",
    "write_trace",
]

#: Pid that called :func:`configure_trace` (or imported this module with
#: ``REPRO_TRACE`` set) — only that process may auto-export at exit, so
#: forked pool workers inheriting the atexit hook never race the parent
#: for the trace file (the single-writer invariant).
_owner_pid = os.getpid() if TRACER.enabled else None

#: Events already exported to the configured path.  Exports drain the
#: tracer, but atexit hooks registered by *other* layers (the store's
#: final flush) may record spans after an explicit :func:`write_trace`;
#: the exit-time re-export must extend the file's contents, not clobber
#: them with just the stragglers.
_exported: list = []


def configure_trace(path: str | None, *, enabled: bool = True) -> None:
    """Enable (or disable) tracing in this process, exporting to *path*.

    The calling process becomes the trace-file owner: it is the only
    one whose exit hook writes the file.  Workers never call this —
    they are switched on remotely (handshake flag) or inherit the
    enabled flag across ``fork`` and only ever buffer + ship.
    """
    global _owner_pid
    TRACER.enabled = enabled
    TRACER.path = path
    _owner_pid = os.getpid() if enabled else None
    _exported.clear()


def write_trace(path: str | None = None) -> int:
    """Drain the tracer's buffer into the Chrome trace file.

    Uses the configured path when *path* is ``None``; returns the
    number of events now in the file (0 if tracing is off or no path is
    set — never raises for "nothing to do", so callers can invoke it
    unconditionally after a run).  Repeated writes to the configured
    path are cumulative: each rewrites the file with everything drained
    so far, so a late span recorded by another layer's exit hook extends
    the trace instead of replacing it.
    """
    target = path or TRACER.path
    if not target:
        return 0
    from .export import write_chrome_trace

    events = TRACER.drain()
    if path is None or path == TRACER.path:
        _exported.extend(events)
        return write_chrome_trace(target, _exported)
    return write_chrome_trace(target, events)


@atexit.register
def _export_at_exit() -> None:
    # Belt and braces for ``REPRO_TRACE=FILE python -m repro ...`` runs
    # that never reach an explicit write_trace (crash, early exit).  The
    # pid guard keeps forked children from clobbering the parent's file,
    # and an empty buffer (already exported, or a worker that shipped
    # everything home) writes nothing.
    if (
        TRACER.enabled
        and TRACER.path
        and os.getpid() == _owner_pid
        and TRACER.snapshot()
    ):
        try:
            write_trace()
        except OSError:
            pass
