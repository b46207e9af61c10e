"""Length-prefixed frames for the serve and worker-pool protocols.

Every message on a serve or worker-pool connection — request or reply —
is one frame: a JSON header, optionally followed by a raw blob section:

    +----------------+------------------------+--------+-----+--------+
    | 4-byte BE len  | UTF-8 JSON object      | blob 0 | ... | blob k |
    |                | (len B)                |        |     |        |
    +----------------+------------------------+--------+-----+--------+

The blob section is present only when the header carries a ``blobs``
key (:data:`BLOBS_KEY`): a list of the byte lengths of the blobs that
follow, in order. A frame without blobs is exactly the plain JSON frame
— header and nothing else — so JSON-only peers, ``nc`` and a hand-built
prefix keep working, and unknown keys are still ignored.
:func:`recv_frame` hands the blobs back in place of their lengths, so
``frame["blobs"]`` is a list of ``bytes``. Task payloads, pushed
shared-memory block chunks, detach snapshots, inline workloads and
streamed blocks all ride as blobs: raw bytes, no base64 expansion and
no encode/decode pass per hop.

The header and the blob section are each capped at
:data:`MAX_FRAME_BYTES`, checked against the announced lengths *before*
anything is read or allocated, so a corrupt or hostile prefix cannot
make a daemon allocate gigabytes. Malformed blob lengths or a blob
section cut short by EOF raise :class:`~repro.errors.TransportError`.

Every accepted or connected repro TCP socket goes through
:func:`set_nodelay`. Replies are small frames streamed one per payload
while the peer's next request may already be in flight; with Nagle's
algorithm on, such a write waits for the ACK of the previous one, and
delayed ACKs hold that for up to ~40 ms on Linux. Measured on a
loopback ``batch-pdf-dist`` run, a ~0.35 ms count/encode task waited a
median ~7 ms from dispatch to done, and the run moved ~1.1 MB/s.

:func:`encode_blob` / :func:`decode_blob` remain for callers that embed
bytes as base64 text in a JSON value; the protocols themselves use blob
sections.

Trace context rides on the same frames: any request may carry a W3C-style
``traceparent`` string under :data:`TRACEPARENT_KEY` (see
:mod:`repro.obs.spans`). The server parses it tolerantly — a missing or
malformed value simply mints a fresh trace — so old clients keep working
against tracing servers and vice versa.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
from collections.abc import Sequence

from repro.errors import TransportError

__all__ = [
    "BLOBS_KEY",
    "MAX_FRAME_BYTES",
    "TRACEPARENT_KEY",
    "close_socket",
    "decode_blob",
    "encode_blob",
    "recv_frame",
    "send_frame",
    "set_nodelay",
]

_LEN = struct.Struct(">I")

#: Frame key carrying W3C trace context (``00-<trace>-<span>-01``) on
#: requests. Optional on every op; unknown to old servers, ignored there.
TRACEPARENT_KEY = "traceparent"

#: Header key announcing the blob section: the list of blob lengths on
#: the wire, the list of blob ``bytes`` in a received frame. Reserved —
#: :func:`send_frame` refuses an object that sets it itself.
BLOBS_KEY = "blobs"

#: Largest JSON header, and separately the largest blob section, either
#: side will accept: a 16 MiB block rides as a raw blob; 64 MiB leaves
#: generous headroom without letting a bad prefix or a bad length list
#: turn into an allocation bomb.
MAX_FRAME_BYTES = 64 << 20


def encode_blob(data: bytes) -> str:
    """Binary payload -> base64 text for embedding in a JSON value."""
    return base64.b64encode(bytes(data)).decode("ascii")


def decode_blob(text: str) -> bytes:
    """Inverse of :func:`encode_blob`; raises TransportError on garbage."""
    try:
        return base64.b64decode(text, validate=True)
    except (ValueError, TypeError) as exc:
        raise TransportError(f"invalid base64 block payload: {exc}") from None


def set_nodelay(sock: socket.socket) -> socket.socket:
    """Turn Nagle's algorithm off on a TCP ``sock`` and return it.

    Small frames (streamed replies, control acks) must leave at once
    rather than wait for the ACK of the previous segment; see the module
    docstring for the stall this removes. Non-TCP sockets (socketpairs
    in tests) pass through untouched.
    """
    if sock.family in (socket.AF_INET, socket.AF_INET6):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def close_socket(sock: socket.socket | None) -> None:
    """Shut ``sock`` down both ways, then close it; ``None`` is a no-op.

    ``SHUT_RDWR`` delivers EOF to a thread blocked in :func:`recv_frame`
    on the same socket, where ``close()`` alone may not wake it.
    """
    if sock is None:
        return
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:  # pragma: no cover - defensive
        pass


def send_frame(sock: socket.socket, obj: dict,
               blobs: Sequence[bytes] = ()) -> None:
    """Serialise ``obj``, append ``blobs`` as the frame's blob section,
    and write the whole frame with one ``sendall``."""
    if BLOBS_KEY in obj:
        raise TransportError(
            f"frame key {BLOBS_KEY!r} is reserved for the blob section")
    if blobs:
        lengths = [len(b) for b in blobs]
        if sum(lengths) > MAX_FRAME_BYTES:
            raise TransportError(
                f"blob section of {sum(lengths)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte cap")
        obj = {**obj, BLOBS_KEY: lengths}
    try:
        body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise TransportError(f"unserialisable frame: {exc}") from None
    if len(body) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap")
    sock.sendall(b"".join((_LEN.pack(len(body)), body, *blobs)))


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; None on clean EOF at a frame boundary."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 16))
        if not chunk:
            if got == 0:
                return None
            raise TransportError(
                f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _blob_lengths(lengths: object) -> list[int]:
    """Validate a header's announced blob lengths (before any read)."""
    if not isinstance(lengths, list) or not all(
            type(n) is int and n >= 0 for n in lengths):
        raise TransportError(
            f"malformed blob lengths {lengths!r}: want a list of "
            "non-negative ints")
    if sum(lengths) > MAX_FRAME_BYTES:
        raise TransportError(
            f"peer announced a {sum(lengths)}-byte blob section (cap "
            f"{MAX_FRAME_BYTES}); refusing to allocate")
    return lengths


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one frame; returns the decoded object or None on clean EOF.

    A frame with a blob section comes back with ``obj["blobs"]`` holding
    the blobs as ``bytes``, in order.
    """
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"peer announced a {length}-byte frame (cap "
            f"{MAX_FRAME_BYTES}); refusing to allocate")
    body = _recv_exact(sock, length)
    if body is None:  # pragma: no cover - EOF race after header
        raise TransportError("connection closed between header and body")
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"malformed frame body: {exc}") from None
    if not isinstance(obj, dict):
        raise TransportError(
            f"frame must be a JSON object, got {type(obj).__name__}")
    if BLOBS_KEY in obj:
        lengths = _blob_lengths(obj[BLOBS_KEY])
        section = _recv_exact(sock, sum(lengths)) or b""
        if len(section) < sum(lengths):
            raise TransportError("connection closed before the blob section")
        blobs, offset = [], 0
        for n in lengths:
            blobs.append(section[offset:offset + n])
            offset += n
        obj[BLOBS_KEY] = blobs
    return obj
