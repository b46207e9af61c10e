"""Length-prefixed JSON framing for the serve protocol.

Every message on a serve connection — request or reply — is one frame:

    +----------------+----------------------------+
    | 4-byte BE len  |  UTF-8 JSON object (len B) |
    +----------------+----------------------------+

JSON keeps the protocol debuggable (``nc`` + a hand-built prefix gets
you a session) and version-tolerant (unknown keys are ignored). Binary
block payloads ride inside the JSON as base64 under ``data_b64`` —
measured overhead is ~33% on the wire, irrelevant next to the shm
transport that carries the bytes from the daemon to its workers.

The frame length is capped (:data:`MAX_FRAME_BYTES`) so a corrupt or
hostile prefix cannot make the daemon allocate gigabytes.

The same framing carries the distributed executor's traffic: a ``repro
worker-pool`` daemon (:mod:`repro.sre.worker_pool`) speaks these frames
for its control and seat connections, with task payload bytes riding
base64 in ``frames``/``payload_b64`` and pushed shared-memory blocks in
``data_b64`` chunks.

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

from repro.errors import TransportError

__all__ = [
    "MAX_FRAME_BYTES",
    "TRACEPARENT_KEY",
    "close_socket",
    "decode_blob",
    "encode_blob",
    "recv_frame",
    "send_frame",
]

_LEN = struct.Struct(">I")

#: Frame key carrying W3C trace context (``00-<trace>-<span>-01``) on
#: requests. Optional on every op; unknown to old servers, ignored there.
TRACEPARENT_KEY = "traceparent"

#: Largest frame either side will accept: a 16 MiB block base64-expands
#: to ~22 MiB; 64 MiB leaves generous headroom without letting a bad
#: prefix turn into an allocation bomb.
MAX_FRAME_BYTES = 64 << 20


def encode_blob(data: bytes) -> str:
    """Binary payload -> the ``data_b64`` JSON representation."""
    return base64.b64encode(bytes(data)).decode("ascii")


def decode_blob(text: str) -> bytes:
    """Inverse of :func:`encode_blob`; raises TransportError on garbage."""
    try:
        return base64.b64decode(text, validate=True)
    except (ValueError, TypeError) as exc:
        raise TransportError(f"invalid base64 block payload: {exc}") from None


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


def send_frame(sock: socket.socket, obj: dict) -> None:
    """Serialise ``obj`` and write one frame (atomic via ``sendall``)."""
    try:
        body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise TransportError(f"unserialisable frame: {exc}") from None
    if len(body) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap")
    sock.sendall(_LEN.pack(len(body)) + body)


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


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one frame; returns the decoded object or None on clean EOF."""
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
    return obj
