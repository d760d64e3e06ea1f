"""Low-overhead structured tracing: spans, instant events, one buffer.

A *span* is one timed operation — a kernel call, a store flush, a batch
job, a seed stream — recorded as a dict compatible with the Chrome
``trace_event`` format (:mod:`repro.obs.export` writes the file).  The
global :data:`TRACER` buffers spans in memory; nothing is ever written
from the hot path, and when tracing is disabled (the default) a span is
a single attribute check plus a shared no-op context manager — cheap
enough to leave in every kernel call.

Single-writer invariant, extended to the trace file: worker processes
(pool workers, distributed workers) never write the trace.  Their spans
are drained into each :class:`~repro.engine.batch.JobResult`
(``trace_events``) exactly like banked store rows, and the batch parent
— or the distributed coordinator — absorbs them into its own buffer,
which is the only one ever exported.  A worker killed mid-job simply
never ships its partial spans: they are dropped, and the trace file
(written atomically, after the run) can never be torn.

Clock alignment: every event's ``ts`` is wall-clock seconds
(``time.time``), so lanes from different processes on one host line up
for free.  Remote workers estimate their offset against the
coordinator's clock from the handshake (:func:`estimate_clock_offset` —
the classic NTP midpoint) and the tracer applies it at drain time, so
by the time spans reach the coordinator they are already on its
timeline.

Enabling: ``REPRO_TRACE=/path/to/trace.json`` in the environment, or
:func:`repro.obs.configure_trace` / the ``--trace FILE`` CLI flags.  A
distributed worker needs neither — the coordinator's handshake tells it
to buffer (events ship home regardless of the worker's environment).
"""

from __future__ import annotations

import math
import os
import threading
import time

__all__ = [
    "TraceSpan",
    "Tracer",
    "TRACER",
    "estimate_clock_offset",
]

#: Keys every buffered event must carry; :meth:`Tracer.absorb` drops
#: anything else (a torn or malicious payload must not corrupt a trace).
_REQUIRED_KEYS = ("name", "cat", "ph", "ts", "lane")

#: Buffered events above this count are dropped (counted, not silently):
#: tracing must bound memory even on runs far longer than it was sized
#: for.  Generous — a full n=4 sweep books tens of thousands of spans.
MAX_EVENTS = 1 << 20


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


class TraceSpan:
    """The mutable handle a ``with span(...)`` block receives.

    ``set(**attrs)`` attaches attributes (the Chrome ``args`` mapping) —
    the kernel wrapper uses it to record which tier served the call once
    it knows.  The no-op twin (:class:`_NoopSpan`) absorbs the same
    calls so instrumented code never branches on whether tracing is on.
    """

    __slots__ = ("_tracer", "name", "cat", "args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args

    def set(self, **attrs) -> "TraceSpan":
        self.args.update(attrs)
        return self

    def __enter__(self) -> "TraceSpan":
        self._start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.time()
        if exc_type is not None:
            self.args["error"] = exc_type.__name__
        self._tracer._record(
            {
                "name": self.name,
                "cat": self.cat,
                "ph": "X",
                "ts": self._start,
                "dur": max(end - self._start, 0.0),
                "lane": self._tracer.lane(),
                "tid": threading.get_ident(),
                "args": self.args,
            }
        )


class _NoopSpan:
    """Shared do-nothing span for the disabled path (one global instance)."""

    __slots__ = ()

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NOOP = _NoopSpan()


class Tracer:
    """Process-global span buffer with fork safety and clock offsetting.

    ``enabled`` is the master switch the hot paths check; ``path`` is
    where :func:`repro.obs.write_trace` exports (``None`` for workers,
    which only buffer and ship).  ``clock_offset`` (seconds to *add* to
    local timestamps) is applied at :meth:`drain` time, so a remote
    worker's spans arrive at the coordinator already on its timeline.
    """

    def __init__(self, enabled: bool = False, path: str | None = None):
        self.enabled = enabled
        self.path = path
        self.clock_offset = 0.0
        self.dropped = 0
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._lane: str | None = None

    def lane(self) -> str:
        """This process's lane label (``host:pid``), fork-aware.

        A forked pool worker inherits the parent's buffer *and* lane;
        the pid check resets both, so a child never re-ships (duplicate)
        events the parent still holds and its spans land in their own
        Perfetto lane.
        """
        pid = os.getpid()
        if self._lane is None or pid != self._pid:
            # The host name without importing socket (same value on
            # POSIX hosts).
            lane = f"{os.uname().nodename}:{pid}"
            with self._lock:
                if pid != self._pid:
                    # Forked child: the buffered events belong to the
                    # parent (which still holds its own copy) — re-shipping
                    # them from here would duplicate every span.
                    self._events = []
                    self.dropped = 0
                    self._pid = pid
                self._lane = lane
        return self._lane

    def _record(self, event: dict) -> None:
        if not self.enabled:
            return
        event["lane"] = self.lane()  # also runs the fork check
        with self._lock:
            if len(self._events) >= MAX_EVENTS:
                self.dropped += 1
                return
            self._events.append(event)

    def instant(self, name: str, cat: str = "event", **attrs) -> None:
        """Record one zero-duration event (lease grants, requeues, ...)."""
        if not self.enabled:
            return
        self._record(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "ts": time.time(),
                "lane": self.lane(),
                "tid": threading.get_ident(),
                "args": dict(attrs),
            }
        )

    def span(self, name: str, cat: str = "span", **attrs):
        """A context manager timing its block; no-op when disabled."""
        if not self.enabled:
            return _NOOP
        return TraceSpan(self, name, cat, dict(attrs))

    # ------------------------------------------------------------------
    # Shipping: workers drain, parents absorb
    # ------------------------------------------------------------------
    def drain(self) -> tuple[dict, ...]:
        """Remove and return buffered events, clock offset applied.

        The worker half of span shipping: events ride home inside each
        :class:`~repro.engine.batch.JobResult` exactly like drained
        store rows, and applying ``clock_offset`` here means receivers
        never need to know whose clock produced a timestamp.
        """
        with self._lock:
            events = self._events
            self._events = []
        if not self.clock_offset:
            return tuple(events)
        shifted = []
        for event in events:
            event = dict(event)
            event["ts"] = event["ts"] + self.clock_offset
            shifted.append(event)
        return tuple(shifted)

    def absorb(self, events) -> int:
        """Fold drained (possibly remote) events into this buffer.

        Validation, not trust: a malformed event — wrong type, missing
        keys, non-finite timestamp — is dropped rather than poisoning
        the eventual trace file.  Partial spans from a killed worker
        never arrive at all; this guards against the torn ones that do.
        Returns the number of events kept.
        """
        if not self.enabled or not events:
            return 0
        kept = 0
        with self._lock:
            for event in events:
                if not isinstance(event, dict):
                    continue
                if any(key not in event for key in _REQUIRED_KEYS):
                    continue
                if not _finite(event["ts"]):
                    continue
                if "dur" in event and not _finite(event["dur"]):
                    continue
                if len(self._events) >= MAX_EVENTS:
                    self.dropped += 1
                    continue
                self._events.append(event)
                kept += 1
        return kept

    def snapshot(self) -> tuple[dict, ...]:
        """The buffered events without draining them (tests, summaries)."""
        with self._lock:
            return tuple(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events = []
            self.dropped = 0


#: The process-global tracer every instrumented layer records into.
#: ``REPRO_TRACE=FILE`` enables it at import; :func:`repro.obs.
#: configure_trace` and the distributed handshake flip it at runtime.
TRACER = Tracer(
    enabled=bool(os.environ.get("REPRO_TRACE")),
    path=os.environ.get("REPRO_TRACE") or None,
)


def estimate_clock_offset(
    local_send: float, local_recv: float, remote_time: float
) -> float:
    """Seconds to add to this host's clock to land on the remote's.

    The classic single-exchange NTP estimate: the remote stamped
    ``remote_time`` somewhere between our ``local_send`` and
    ``local_recv``, so the best guess pairs it with the midpoint —
    ``offset = remote_time - (local_send + local_recv) / 2`` — and the
    error is bounded by half the round-trip.  The correction is one
    constant shift per connection, so it preserves the *order* and the
    *durations* of every local timestamp exactly (the monotonicity the
    tests pin); only the lane's absolute position moves.
    """
    midpoint = (local_send + local_recv) / 2.0
    return remote_time - midpoint
