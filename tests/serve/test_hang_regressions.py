"""Regression tests for the serve-layer hang bugs.

Two ways the serve layer used to wedge forever, both found while
building the distributed executor on top of it:

* the daemon's per-connection threads were untracked and blocked in
  ``recv_frame`` with no timeout, so an idle client pinned its thread
  for the life of the process and ``stop()`` never reclaimed it;
* ``ServeClient._call`` held the client lock around an unbounded
  ``recv_frame``, so a daemon that accepted but never replied wedged
  the calling thread *and* every other thread sharing the client.

Each test here fails against the old code (hang or leaked thread)
and pins the fix: tracked connections + idle deadline + sockets closed
on ``stop()``; a per-call client deadline surfacing as a typed
:class:`~repro.client.ServeError`. The adversarial-peer tests drive
the same wire-level attacks (truncated header/body, oversize length,
non-JSON, non-dict JSON) against a *live daemon* and assert it sheds
the bad peer and keeps serving — `tests/serve/test_wire.py` proves
``recv_frame`` raises; these prove the daemon survives the raise.
"""

import socket
import struct
import threading
import time

import pytest

from repro.client import ServeClient, ServeError
from repro.serve.server import ServeSettings, SpeculationServer
from repro.serve.wire import MAX_FRAME_BYTES, recv_frame, send_frame


@pytest.fixture()
def server():
    srv = SpeculationServer(ServeSettings(job_workers=1)).start()
    yield srv
    srv.stop()


def _connect(srv: SpeculationServer) -> socket.socket:
    return socket.create_connection(("127.0.0.1", srv.port), timeout=10)


# ---------------------------------------------------------------------------
# satellite 1: idle connections must not survive daemon shutdown
# ---------------------------------------------------------------------------

def test_idle_connection_does_not_survive_shutdown():
    """An idle client (connected, never sends) must not block stop():
    the daemon closes the tracked socket, the handler thread exits, and
    the client sees EOF. The old code left the thread parked in
    recv_frame forever and stop() never knew about it."""
    srv = SpeculationServer(ServeSettings(job_workers=1)).start()
    idle = _connect(srv)
    # Prove the connection is established and being served before stop.
    probe = _connect(srv)
    send_frame(probe, {"op": "ping"})
    assert recv_frame(probe)["ok"]
    probe.close()

    done = threading.Event()
    threading.Thread(target=lambda: (srv.stop(), done.set()),
                     daemon=True).start()
    assert done.wait(timeout=15.0), "stop() wedged on an idle connection"
    # The daemon closed the socket under the idle peer: recv sees EOF
    # promptly instead of blocking until the peer gives up.
    idle.settimeout(5.0)
    assert idle.recv(1) == b""
    idle.close()


def test_idle_connection_evicted_by_deadline():
    """conn_idle_timeout_s bounds how long a silent peer may pin a
    handler thread even while the daemon keeps running."""
    srv = SpeculationServer(
        ServeSettings(job_workers=1, conn_idle_timeout_s=0.2)).start()
    try:
        idle = _connect(srv)
        idle.settimeout(10.0)
        assert idle.recv(1) == b"", "idle peer was not evicted"
        idle.close()
        kinds = [e["kind"] for e in srv.events.events()]
        assert "serve_conn_closed" in kinds
        # The daemon is still healthy for well-behaved clients.
        with ServeClient(port=srv.port) as client:
            assert client.ping()["ok"]
    finally:
        srv.stop()


# ---------------------------------------------------------------------------
# satellite 2: client-side reply deadline
# ---------------------------------------------------------------------------

@pytest.fixture()
def black_hole():
    """A server that accepts and then never replies — the exact shape of
    a wedged daemon."""
    listener = socket.create_server(("127.0.0.1", 0))
    conns: list[socket.socket] = []
    stop = threading.Event()

    def accept_loop():
        listener.settimeout(0.2)
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conns.append(conn)  # hold it open; never read, never reply

    t = threading.Thread(target=accept_loop, daemon=True)
    t.start()
    yield listener.getsockname()[1]
    stop.set()
    listener.close()
    for c in conns:
        c.close()
    t.join(timeout=5.0)


def test_client_times_out_against_silent_daemon(black_hole):
    client = ServeClient(port=black_hole, timeout_s=0.5)
    try:
        t0 = time.monotonic()
        with pytest.raises(ServeError, match="daemon timed out"):
            client.ping()
        assert time.monotonic() - t0 < 10.0
    finally:
        client.close()


def test_client_timeout_does_not_wedge_other_threads(black_hole):
    """The lock is released when the deadline fires, so a second thread
    sharing the client gets its own timely timeout instead of queueing
    behind a forever-blocked peer."""
    client = ServeClient(port=black_hole, timeout_s=0.5)
    errors: list[Exception] = []

    def call():
        try:
            client.ping()
        except Exception as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    try:
        threads = [threading.Thread(target=call) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=15.0)
            assert not t.is_alive(), "caller wedged behind the lock"
        assert len(errors) == 2
        assert all(isinstance(e, ServeError) for e in errors)
    finally:
        client.close()


# ---------------------------------------------------------------------------
# satellite 3: adversarial peers against a live daemon
# ---------------------------------------------------------------------------

def _daemon_still_serves(srv: SpeculationServer) -> bool:
    with ServeClient(port=srv.port) as client:
        return bool(client.ping()["ok"])


def test_daemon_survives_truncated_header(server):
    evil = _connect(server)
    evil.sendall(b"\x00\x00")  # half a length prefix
    evil.close()
    assert _daemon_still_serves(server)


def test_daemon_survives_truncated_body(server):
    evil = _connect(server)
    evil.sendall(struct.pack(">I", 100) + b'{"partial":')
    evil.close()
    assert _daemon_still_serves(server)


def test_daemon_survives_oversize_announcement(server):
    evil = _connect(server)
    evil.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
    # The daemon refuses the frame and drops the connection: EOF, no
    # gigabyte allocation, no hung thread.
    evil.settimeout(10.0)
    assert evil.recv(1) == b""
    evil.close()
    assert _daemon_still_serves(server)


def test_daemon_survives_malformed_and_non_dict_json(server):
    for body in (b"not json at all", b"[1, 2, 3]", b'"just a string"'):
        evil = _connect(server)
        evil.sendall(struct.pack(">I", len(body)) + body)
        evil.settimeout(10.0)
        assert evil.recv(1) == b""
        evil.close()
    assert _daemon_still_serves(server)


# ---------------------------------------------------------------------------
# small frames leave at once: TCP_NODELAY on both ends of a serve socket
# ---------------------------------------------------------------------------

def test_daemon_and_client_sockets_set_nodelay(server):
    with ServeClient(port=server.port) as client:
        assert client.ping()["ok"]  # the daemon has accepted the conn
        assert client._sock.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY)
        with server._conns_lock:
            mine = client._sock.getsockname()
            (conn,) = [c for c in server._conns if c.getpeername() == mine]
        assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_blob_frames_shed_when_malformed(server):
    """A block frame without its one blob is refused with an error
    reply, and a blob section cut short drops the connection; either
    way the daemon keeps serving."""
    with ServeClient(port=server.port) as client:
        job = client.submit({"app": "huffman", "io": "live", "n_blocks": 1,
                             "executor": "threads", "workers": 1})
        with pytest.raises(ServeError, match="exactly one data blob"):
            client._checked({"op": "block", "job_id": job, "index": 0})
        with pytest.raises(ServeError, match="exactly one data blob"):
            client._checked({"op": "block", "job_id": job, "index": 0},
                            (b"a", b"b"))
        client.send_block(job, 0, b"A" * 4096)
        client.close_stream(job)
        assert client.result(job, timeout_s=60.0)["outcome"]
    evil = _connect(server)
    body = b'{"op":"block","blobs":[4096]}'
    evil.sendall(struct.pack(">I", len(body)) + body + b"x" * 10)
    evil.close()
    assert _daemon_still_serves(server)
