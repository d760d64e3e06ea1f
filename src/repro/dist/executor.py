"""The distributed executor and the client side of the status probe.

:class:`DistExecutor` is how a batch runs on a cluster:
``run_batch(tasks, executor=DistExecutor("HOST:PORT"))`` binds a TCP
coordinator for the batch, serves every ``python -m repro worker`` that
connects, on this host or others, and returns the same
:class:`~repro.engine.batch.BatchResult` — results in submission order,
merged statistics — as ``run_batch(tasks, jobs=N)`` on this host; the
equivalence tests pin serial == pool == dist.  :func:`probe_status` and
:func:`watch_status` ask a running coordinator how its batch is going.
"""

from __future__ import annotations

import json
import socket
import sys
import time
from collections.abc import Callable

from ..errors import DistError
from .protocol import (
    DIST_STATUS,
    DIST_STATUS_REPLY,
    PROTOCOL_VERSION,
    ProtocolError,
    request,
)

__all__ = [
    "DistExecutor",
    "parse_address",
    "probe_status",
    "watch_status",
]


class DistExecutor:
    """A coordinator serving jobs to TCP workers (multi-host fan-out).

    ``run`` binds the coordinator, serves every connected
    ``python -m repro worker``, and blocks until all results are in — the
    store-backed warm start and parent-only SQLite writes of
    :mod:`repro.dist.coordinator` included.  ``bound_address`` holds the
    actual ``(host, port)`` once bound (useful with port 0), and
    ``on_bound`` is called with it so callers can launch workers exactly
    when the queue is up.
    """

    def __init__(
        self,
        address: str | tuple[str, int],
        *,
        log: Callable[[str], None] | None = None,
        on_bound: Callable[[tuple[str, int]], object] | None = None,
    ):
        if isinstance(address, str):
            address = parse_address(address)
        self.host, self.port = address
        self.log = log
        self.on_bound = on_bound
        self.bound_address: tuple[str, int] | None = None

    def run(self, tasks):
        from .coordinator import Coordinator

        coordinator = Coordinator(
            tasks, host=self.host, port=self.port, log=self.log
        )
        with coordinator:
            self.bound_address = coordinator.address
            if self.on_bound is not None:
                self.on_bound(self.bound_address)
            return coordinator.serve()

    def __repr__(self) -> str:
        return f"DistExecutor({self.host}:{self.port})"


def parse_address(spec: str) -> tuple[str, int]:
    """Parse ``HOST:PORT``, ``:PORT`` or bare ``PORT`` into an address.

    An omitted host means ``127.0.0.1`` — serving beyond localhost is an
    explicit decision (``0.0.0.0:PORT``), since the job protocol is a
    single-trust-domain transport (see :mod:`repro.dist.protocol`).
    """
    spec = spec.strip()
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        host, port_text = "", spec
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise DistError(
            f"invalid address {spec!r}: expected HOST:PORT or :PORT"
        ) from None
    if not 0 <= port <= 65535:
        raise DistError(f"invalid port {port} in address {spec!r}")
    return host, port


def probe_status(
    address: str | tuple[str, int], *, timeout: float = 5.0
) -> dict:
    """Ask a running coordinator for its status snapshot.

    Speaks the one-shot ``status`` conversation of
    :mod:`~repro.dist.protocol`: queue depth, leases, requeues,
    per-worker throughput, and the rows seeded to workers.  ``python -m
    repro dist status HOST:PORT`` is the CLI wrapper.
    Raises :class:`~repro.errors.DistError` when ``timeout`` is not
    positive, nothing is listening, the peer is not a coordinator, or the
    protocol versions mismatch.
    """
    if timeout <= 0:
        raise DistError(f"timeout must be positive, got {timeout}")
    if isinstance(address, str):
        address = parse_address(address)
    try:
        sock = socket.create_connection(address, timeout=timeout)
    except OSError as exc:
        raise DistError(
            f"no coordinator listening at {address[0]}:{address[1]}: {exc}"
        ) from exc
    try:
        sock.settimeout(timeout)
        try:
            kind, payload = request(
                sock, DIST_STATUS, {"version": PROTOCOL_VERSION}
            )
        except (OSError, ProtocolError) as exc:
            raise DistError(f"status probe failed: {exc}") from exc
        if kind == "reject":
            reason = (
                payload.get("reason") if isinstance(payload, dict) else payload
            )
            raise DistError(f"status probe rejected: {reason}")
        if kind != DIST_STATUS_REPLY or not isinstance(payload, dict):
            raise DistError(f"unexpected status reply {kind!r}")
        return payload
    finally:
        sock.close()


def render_status_json(status: dict, *, indent: int | None = None) -> str:
    """The one JSON rendering of a coordinator status snapshot.

    ``dist status --json`` and ``--watch --json`` both emit the same
    dict — the coordinator's ``status_snapshot()`` — so the
    serialisation lives in exactly one place.
    """
    return json.dumps(status, sort_keys=True, indent=indent)


#: ANSI clear-screen + cursor-home, the "reprint in place" of watch mode.
_CLEAR = "\x1b[2J\x1b[H"


def watch_status(
    address: str | tuple[str, int],
    *,
    interval: float = 2.0,
    count: int | None = None,
    render: Callable[[dict], str] | None = None,
    stream=None,
    clear: bool = True,
    timeout: float = 5.0,
    probe: Callable[..., dict] = probe_status,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Poll a coordinator's status until it goes away; returns poll count.

    The engine behind ``python -m repro dist status --watch N``: probe,
    print, sleep, repeat.  ``render`` formats each snapshot (``None``
    emits one compact JSON object per poll — the ``--json`` line
    protocol); ``clear`` prefixes each human-mode reprint with an ANSI
    clear-screen so the terminal shows one live panel instead of a
    scroll.  A coordinator that stops answering *after* at least one
    successful poll ends the watch normally (the run finished); an
    address that never answers raises :class:`~repro.errors.DistError`
    immediately, exactly like a single-shot probe.  ``count`` bounds the
    polls (``None`` = until the coordinator goes away); ``probe`` and
    ``sleep`` are injectable for tests.
    """
    if interval <= 0:
        raise DistError(f"watch interval must be positive, got {interval}")
    if count is not None and count < 1:
        raise DistError(f"watch count must be positive, got {count}")
    out = stream if stream is not None else sys.stdout
    polls = 0
    while count is None or polls < count:
        try:
            status = probe(address, timeout=timeout)
        except DistError:
            if polls == 0:
                raise
            break  # was answering, now gone: the run finished
        polls += 1
        if render is None:
            text = render_status_json(status)
        else:
            text = render(status)
            if clear:
                text = _CLEAR + text
        out.write(text + "\n")
        if hasattr(out, "flush"):
            out.flush()
        if count is not None and polls >= count:
            break
        sleep(interval)
    return polls
