"""Framing layer: length-prefixed JSON frames, with and without a raw
blob section, over a socketpair."""

import json
import socket
import struct
import threading

import pytest

from repro.errors import TransportError
from repro.serve import wire
from repro.serve.wire import (MAX_FRAME_BYTES, decode_blob, encode_blob,
                              recv_frame, send_frame, set_nodelay)


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


def test_roundtrip_simple(pair):
    a, b = pair
    send_frame(a, {"op": "ping", "n": 3})
    assert recv_frame(b) == {"op": "ping", "n": 3}


def test_roundtrip_many_frames_in_order(pair):
    a, b = pair
    for i in range(50):
        send_frame(a, {"i": i})
    for i in range(50):
        assert recv_frame(b) == {"i": i}


def test_blob_roundtrip(pair):
    a, b = pair
    payload = bytes(range(256)) * 40
    send_frame(a, {"data_b64": encode_blob(payload)})
    frame = recv_frame(b)
    assert decode_blob(frame["data_b64"]) == payload


def test_clean_eof_returns_none(pair):
    a, b = pair
    a.close()
    assert recv_frame(b) is None


def test_mid_frame_eof_raises(pair):
    a, b = pair
    send_frame(a, {"x": "y" * 100})
    # deliver only the header + a few body bytes, then hang up
    threading.Thread(target=a.close).start()
    # consume the valid frame first so close lands cleanly for this test
    assert recv_frame(b)["x"] == "y" * 100


def test_truncated_body_raises():
    a, b = socket.socketpair()
    try:
        import struct

        a.sendall(struct.pack(">I", 100) + b'{"partial":')
        a.close()
        with pytest.raises(TransportError, match="mid-frame"):
            recv_frame(b)
    finally:
        b.close()


def test_oversize_announcement_refused():
    a, b = socket.socketpair()
    try:
        import struct

        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(TransportError, match="refusing"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_malformed_json_raises(pair):
    a, b = pair
    import struct

    body = b"not json at all"
    a.sendall(struct.pack(">I", len(body)) + body)
    with pytest.raises(TransportError, match="malformed"):
        recv_frame(b)


def test_non_object_frame_rejected(pair):
    a, b = pair
    import struct

    body = b"[1, 2, 3]"
    a.sendall(struct.pack(">I", len(body)) + body)
    with pytest.raises(TransportError, match="object"):
        recv_frame(b)


def test_bad_base64_raises():
    with pytest.raises(TransportError, match="base64"):
        decode_blob("!!!not base64!!!")


# ---------------------------------------------------------------------------
# blob sections: raw bytes after the JSON header
# ---------------------------------------------------------------------------

def _send_in_thread(sock, obj, blobs):
    """sendall of a frame larger than the socket buffer needs a reader
    on the other end; run the writer beside it."""
    t = threading.Thread(target=send_frame, args=(sock, obj),
                         kwargs={"blobs": blobs})
    t.start()
    return t


def test_zero_blob_frame_is_byte_identical_to_plain_json(pair):
    a, b = pair
    send_frame(a, {"op": "ping", "n": 3}, blobs=())
    body = b'{"op":"ping","n":3}'
    assert b.recv(1024) == struct.pack(">I", len(body)) + body


@pytest.mark.parametrize("blobs", [
    [],
    [b"one"],
    [b"a", b"", bytes(range(256)) * 40, b"z"],
    [b""],
    [bytes(range(256)) * 4096 + b"tail"],  # > 1 MiB
], ids=["zero", "one", "many", "empty", "1mib"])
def test_blob_section_roundtrip(pair, blobs):
    a, b = pair
    t = _send_in_thread(a, {"op": "x", "n": len(blobs)}, blobs)
    frame = recv_frame(b)
    t.join(timeout=10.0)
    assert frame.pop("op") == "x" and frame.pop("n") == len(blobs)
    assert frame == ({"blobs": blobs} if blobs else {})
    send_frame(a, {"after": True})  # the stream stays in step
    assert recv_frame(b) == {"after": True}


@pytest.mark.parametrize("blobs", [(), [b"x"]])
def test_send_refuses_reserved_blobs_key(pair, blobs):
    a, _b = pair
    with pytest.raises(TransportError, match="reserved"):
        send_frame(a, {"blobs": [1]}, blobs=blobs)


def test_send_refuses_oversize_blob_section(pair):
    a, _b = pair
    big = memoryview(bytearray(MAX_FRAME_BYTES // 2 + 1))
    with pytest.raises(TransportError, match="cap"):
        send_frame(a, {}, blobs=[big, big])


def _header(obj):
    body = json.dumps(obj).encode("utf-8")
    return struct.pack(">I", len(body)) + body


@pytest.mark.parametrize("tail,match", [
    (b"x" * 50, "mid-frame"),   # EOF inside the section
    (b"", "blob section"),      # EOF right after the header
])
def test_blob_section_truncated_by_eof_raises(pair, tail, match):
    a, b = pair
    a.sendall(_header({"blobs": [10, 100]}) + tail)
    a.close()
    with pytest.raises(TransportError, match=match):
        recv_frame(b)


@pytest.mark.parametrize("lengths", [
    [MAX_FRAME_BYTES + 1],
    [MAX_FRAME_BYTES // 2, MAX_FRAME_BYTES // 2 + 1],
])
def test_oversize_blob_section_refused_before_reading(pair, monkeypatch,
                                                      lengths):
    a, b = pair
    reads = []
    real = wire._recv_exact

    def spy(sock, n):
        reads.append(n)
        return real(sock, n)

    monkeypatch.setattr(wire, "_recv_exact", spy)
    frame = _header({"blobs": lengths})
    a.sendall(frame)  # and nothing after: a read would block
    b.settimeout(5.0)
    with pytest.raises(TransportError, match="refusing"):
        recv_frame(b)
    assert reads == [4, len(frame) - 4]  # prefix and header only


@pytest.mark.parametrize("lengths", [
    5, "3", {"n": 1}, None,       # not a list
    [-1], [3, -2],                # negative
    [1.5], ["3"], [True], [None],  # not an int
])
def test_malformed_blob_lengths_raise(pair, lengths):
    a, b = pair
    a.sendall(_header({"blobs": lengths}) + b"x" * 8)
    with pytest.raises(TransportError, match="blob lengths"):
        recv_frame(b)


def test_set_nodelay_on_tcp_and_passthrough_elsewhere(pair):
    listener = socket.create_server(("127.0.0.1", 0))
    client = socket.create_connection(listener.getsockname(), timeout=5)
    try:
        assert client.getsockopt(socket.IPPROTO_TCP,
                                 socket.TCP_NODELAY) == 0
        assert set_nodelay(client) is client
        assert client.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    finally:
        client.close()
        listener.close()
    a, _b = pair
    assert set_nodelay(a) is a  # a socketpair is not TCP: untouched
