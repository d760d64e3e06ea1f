"""Wire protocol of the distributed work queue.

Everything on the wire is a length-prefixed *frame*: a 4-byte big-endian
payload length followed by a pickled ``(kind, payload)`` pair.  Pickle is
acceptable here for the same reason it is in the result store: the
coordinator and its workers are one trust domain (the same checkout, the
same operator), and the protocol is a private transport between them —
never expose a coordinator port to machines you would not run code from.

The conversation, after a version handshake, is worker-driven::

    worker                          coordinator
    ------                          -----------
    hello {version, worker}    ->
                               <-   welcome {version, jobs, heartbeat,
                                    seed, now, trace}
                               <-   store_seed {rows, done}*  (warm start,
                                    zero or more chunks, last has done=True)
    next {}                    ->
                               <-   job {index, job} | wait {delay} | done {}
    heartbeat {index}          ->   (one-way, extends the job's lease)
    result {index, outcome}    ->
                               <-   job | wait | done      (piggybacked next)
    bye {}                     ->   (one-way, then close)

``result`` replies double as the next directive so a busy worker pays one
round trip per job.  Heartbeats are fire-and-forget and never answered,
which keeps the request/response streams aligned even though a worker's
heartbeat thread interleaves them with the main loop's requests (sends are
serialised by a per-socket lock on the worker side).

A second, trivial conversation supports observability: a probe client's
*first* frame may be ``status {version}`` instead of ``hello``, answered
with one ``status_reply {...}`` (queue depth, leases, per-worker
throughput, seed counters) after which the connection closes.  That
is what ``python -m repro dist status HOST:PORT`` speaks.

Tracing rides the existing frames rather than adding new ones: the
``welcome`` carries ``now`` (the coordinator's wall clock, the reference
for the worker's NTP-midpoint clock-offset estimate) and ``trace`` (tell
the worker to buffer spans), and a traced worker's spans ship home inside
each ``result``'s ``JobResult.trace_events`` — exactly like its banked
store rows, so the coordinator stays the trace file's single writer.
Dict payloads may grow keys without a version bump (readers ``get`` what
they know); ``PROTOCOL_VERSION`` changes only when existing semantics do.
"""

from __future__ import annotations

import pickle
import socket
import struct

from ..errors import EngineError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME",
    "STORE_SEED",
    "DIST_STATUS",
    "DIST_STATUS_REPLY",
    "ProtocolError",
    "encode_message",
    "decode_message",
    "send_message",
    "recv_message",
    "request",
]

#: Bumped on any incompatible change; the handshake rejects mismatches
#: outright rather than guessing at cross-version semantics.  v2 added
#: the store data plane (seed streaming, remote loads) and the status
#: probe; v3 removed the worker's one-way ``delta`` frame and the
#: per-worker setup callable the ``welcome`` used to carry, so a v2
#: worker, which sends ``delta`` right after its handshake, is refused
#: at ``hello`` instead of dropped.  Dropping remote loads (a worker's
#: mid-job store-miss request and the welcome's ``seed["remote"]``
#: offer) needed no bump: a v3 worker reads a welcome without that key
#: as "remote loads off", which it already handles, and a current worker
#: never sends the request.  v4 ships 6-field store rows (the recency
#: field is gone) inside ``result`` (``JobResult.store_rows``) and
#: ``store_seed`` frames; a v3 peer is refused at ``hello``, since
#: otherwise every row it sent or received would be skipped as malformed.
#: v5 drops the CSP backend from a sweep's per-``k`` jobs, whose
#: arguments are now ``(g, n, budget, k)``: a v4 peer is refused at
#: ``hello``, since otherwise a v5 worker would fail every five-argument
#: job a v4 coordinator hands it with a ``TypeError``.
PROTOCOL_VERSION = 5

#: Frame kinds of the store seed stream and the status probe.  The job
#: frames (``hello``/``welcome``/``next``/``job``/``result``/...) predate
#: these constants and stay literal strings at their call sites.
STORE_SEED = "store_seed"
DIST_STATUS = "status"
DIST_STATUS_REPLY = "status_reply"

#: Upper bound on a single frame (a pickled job or result).  Generously
#: above anything the sweeps ship, and low enough that a corrupt or
#: malicious length prefix cannot trigger a giant allocation.
MAX_FRAME = 1 << 28

_HEADER = struct.Struct(">I")


class ProtocolError(EngineError):
    """A malformed, oversized, or wrong-version frame."""


def encode_message(kind: str, payload: object = None) -> bytes:
    """One ``(kind, payload)`` frame as wire bytes (header + pickle).

    The building block shared by the blocking :func:`send_message` and
    the coordinator's event loop (which appends frames to per-connection
    write buffers instead of calling ``sendall``).
    """
    blob = pickle.dumps((kind, payload), protocol=pickle.HIGHEST_PROTOCOL)
    if len(blob) > MAX_FRAME:
        raise ProtocolError(
            f"refusing to send {len(blob)}-byte frame (kind {kind!r})"
        )
    return _HEADER.pack(len(blob)) + blob


def decode_message(blob: bytes) -> tuple[str, object]:
    """Decode one frame *payload* (header already stripped and checked)."""
    try:
        kind, payload = pickle.loads(blob)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(kind, str):
        raise ProtocolError(f"frame kind must be a string, got {type(kind)}")
    return kind, payload


def send_message(sock: socket.socket, kind: str, payload: object = None) -> None:
    """Pickle and send one ``(kind, payload)`` frame."""
    sock.sendall(encode_message(kind, payload))


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes, or ``None`` on a clean EOF.

    EOF mid-message is a torn frame and raises; EOF on a frame boundary is
    how a killed worker (or a finished coordinator) normally looks.
    """
    chunks = []
    received = 0
    while received < count:
        chunk = sock.recv(count - received)
        if not chunk:
            if received:
                raise ProtocolError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> tuple[str, object] | None:
    """Receive one frame; ``None`` means the peer closed the connection."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds cap {MAX_FRAME}")
    blob = _recv_exact(sock, length)
    if blob is None:
        raise ProtocolError("connection closed between header and payload")
    return decode_message(blob)


def request(
    sock: socket.socket, kind: str, payload: object = None
) -> tuple[str, object]:
    """Send one frame and block for the reply (client-side helper)."""
    send_message(sock, kind, payload)
    reply = recv_message(sock)
    if reply is None:
        raise ProtocolError(f"peer closed while awaiting reply to {kind!r}")
    return reply
