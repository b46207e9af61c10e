"""The distributed executor: a ProcessExecutor whose workers live
behind a TCP worker pool.

Acceptance bar, mirroring the procs back-end's:

* a dist run is **byte-identical** to the simulated run of the same
  config (pickle and shm transports);
* the chaos harness maps onto sockets verbatim — ``kill@3`` on the
  remote pool produces a ``worker_respawn`` and a clean, still
  byte-identical completion;
* a pool (or seat) that is gone for good degrades to coordinator-inline
  execution instead of failing the run;
* an adversarial or wedged pool surfaces as a prompt typed
  :class:`~repro.errors.WorkerLost` at the coordinator seam — never a
  hang (the dist half of the serve-layer hang regressions);
* nothing leaks: pushed segments are released at teardown.
"""

import itertools
import multiprocessing
import pickle
import socket
import struct
import threading
from contextlib import contextmanager
from functools import partial

import pytest

from repro.errors import TransportError, WorkerLost
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.serve.wire import (MAX_FRAME_BYTES, encode_blob, recv_frame,
                              send_frame)
from repro.sre import executor_dist, shm
from repro.sre.executor_dist import DistExecutor, RemotePool
from repro.sre.executor_procs import PipeLink, WorkerSupervisor
from repro.sre.registry import executor_names, make_executor
from repro.sre.runtime import Runtime
from repro.sre.task import PAYLOAD_PROTOCOL, Task
from repro.sre.worker_pool import PoolSettings, WorkerPoolServer

pytestmark = [pytest.mark.procs, pytest.mark.threaded]


@pytest.fixture()
def pool():
    srv = WorkerPoolServer(PoolSettings()).start()
    yield srv
    srv.stop()


@pytest.fixture()
def pool_addr(pool):
    return f"127.0.0.1:{pool.port}"


def _shm_names():
    """Segments created by *this* process (coordinator and in-process
    pool both name them ``repro-<pid>-...``) present under /dev/shm —
    pid-scoped so concurrent repro runs can't race us; leak checks
    diff before/after so earlier tests' leftovers don't bleed in."""
    import glob
    import os

    return set(glob.glob(f"/dev/shm/repro-{os.getpid()}-*"))


def _identity(i):
    return {"out": i}


def _double(x):
    return {"out": x * 2}


# ---------------------------------------------------------------------------
# registration + config plumbing
# ---------------------------------------------------------------------------

def test_dist_is_registered():
    assert "dist" in executor_names()


def test_make_executor_builds_dist(pool_addr):
    ex = make_executor("dist", Runtime(), pool=pool_addr, workers=1)
    assert isinstance(ex, DistExecutor)


def test_runconfig_requires_pool():
    from repro.errors import ExperimentError
    from repro.experiments.config import RunConfig

    with pytest.raises(ExperimentError, match="pool"):
        RunConfig(executor="dist")
    with pytest.raises(ExperimentError, match="dist"):
        RunConfig(executor="procs", pool="127.0.0.1:1")
    with pytest.raises(ExperimentError, match="host:port"):
        RunConfig(executor="dist", pool="nonsense")


# ---------------------------------------------------------------------------
# the executor contract, across the wire
# ---------------------------------------------------------------------------

def test_runs_all_tasks_on_remote_workers(pool_addr):
    rt = Runtime()
    ex = DistExecutor(rt, pool=pool_addr, workers=2)
    for i in range(10):
        rt.add_task(Task(f"t{i}", partial(_identity, i)))
    ex.run(timeout=60.0)
    assert {t.name: t.outputs["out"] for t in rt.graph.tasks()} == {
        f"t{i}": i for i in range(10)
    }
    assert ex.tasks_shipped == 10
    assert ex.tasks_inline == 0
    # remote worker_exec events came home in the detach snapshot,
    # attributed to both their seat and their origin pool.
    execs = [e for e in rt.events.events() if e["kind"] == "worker_exec"]
    assert execs and all("origin" in e and "worker" in e for e in execs)


def test_dataflow_chain_across_the_wire(pool_addr):
    rt = Runtime()
    ex = DistExecutor(rt, pool=pool_addr, workers=2)
    a = rt.add_task(Task("a", partial(_identity, 5)))
    b = rt.add_task(Task("b", _double, inputs=("x",)))
    rt.connect(a, "out", b, "x")
    ex.run(timeout=60.0)
    assert b.outputs == {"out": 10}


def test_remote_kill_respawns_and_completes(pool_addr):
    """kill@3 armed on the *remote* pool: the seat connection dies, the
    coordinator reconnects with a bumped incarnation, and every task
    still completes."""
    rt = Runtime()
    ex = DistExecutor(rt, pool=pool_addr, workers=2, fault_plan="kill@3",
                      batch_max=1)
    for i in range(12):
        rt.add_task(Task(f"t{i}", partial(_identity, i)))
    ex.run(timeout=120.0)
    assert {t.outputs["out"] for t in rt.graph.tasks()} == set(range(12))
    kinds = [e["kind"] for e in rt.events.events()]
    assert "worker_crash" in kinds
    assert "worker_respawn" in kinds


def test_persistent_kills_degrade_to_inline(pool_addr):
    """kill@1! on every incarnation exhausts the reconnect budget; the
    seats degrade and the run completes coordinator-inline — the same
    ladder the local back-end guarantees."""
    rt = Runtime()
    ex = DistExecutor(rt, pool=pool_addr, workers=1, fault_plan="kill@1!",
                      max_worker_respawns=1, max_task_retries=8,
                      batch_max=1)
    for i in range(6):
        rt.add_task(Task(f"t{i}", partial(_identity, i)))
    ex.run(timeout=120.0)
    assert {t.outputs["out"] for t in rt.graph.tasks()} == set(range(6))
    kinds = [e["kind"] for e in rt.events.events()]
    assert "worker_degraded" in kinds
    assert ex.tasks_inline > 0


def test_attach_to_dead_pool_raises():
    from repro.errors import SchedulingError

    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    listener.close()  # nothing listens here any more
    rt = Runtime()
    ex = DistExecutor(rt, pool=f"127.0.0.1:{port}", workers=1)
    with pytest.raises((SchedulingError, OSError)):
        ex.start()


def test_pool_refuses_oversized_attach(pool):
    srv = pool
    conn = socket.create_connection(("127.0.0.1", srv.port), timeout=10)
    send_frame(conn, {"op": "attach",
                      "workers": srv.settings.max_workers + 1})
    reply = recv_frame(conn)
    assert reply["ok"] is False and "seats" in reply["error"]
    conn.close()


def test_seat_hello_for_unknown_session_refused(pool):
    conn = socket.create_connection(("127.0.0.1", pool.port), timeout=10)
    send_frame(conn, {"op": "seat", "session": "nope", "wid": 0,
                      "incarnation": 0})
    reply = recv_frame(conn)
    assert reply["ok"] is False
    conn.close()


# ---------------------------------------------------------------------------
# end-to-end byte identity vs the simulated executor
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("transport", ["pickle", "shm"])
def test_huffman_dist_byte_identical_to_sim(pool_addr, transport):
    from repro.experiments import RunConfig, run_huffman

    before = _shm_names()
    sim = run_huffman(config=RunConfig(workload="txt", n_blocks=64,
                                       executor="sim"))
    dist = run_huffman(config=RunConfig(workload="txt", n_blocks=64,
                                        executor="dist", pool=pool_addr,
                                        workers=2, transport=transport))
    assert dist.output_sha256 == sim.output_sha256
    leaked = _shm_names() - before
    assert not leaked, f"leaked segments: {sorted(leaked)}"


@pytest.mark.slow
def test_huffman_dist_chaos_byte_identical(pool_addr):
    from repro.experiments import RunConfig, run_huffman

    before = _shm_names()
    sim = run_huffman(config=RunConfig(workload="txt", n_blocks=64,
                                       executor="sim"))
    dist = run_huffman(config=RunConfig(workload="txt", n_blocks=64,
                                        executor="dist", pool=pool_addr,
                                        workers=2, fault_plan="kill@3"))
    assert dist.output_sha256 == sim.output_sha256
    kinds = [e["kind"] for e in dist.events.events()]
    assert "remote_pool_attach" in kinds
    assert "worker_respawn" in kinds
    leaked = _shm_names() - before
    assert not leaked, f"leaked segments: {sorted(leaked)}"


# ---------------------------------------------------------------------------
# the block-push seam (chunked shm over the wire)
# ---------------------------------------------------------------------------

def test_segment_push_roundtrip():
    """materialize/write/read: the primitives the pool's segment/chunk
    ops land on, exercised without a socket."""
    name = "repro_test_push_seg"
    created = shm.materialize_segment(name, 4096)
    try:
        assert created is True  # fresh name: a copy was created
        # attaching the same name again is a no-op native attach
        assert shm.materialize_segment(name, 4096) is False
        payload = bytes(range(256)) * 8
        shm.write_block(name, 128, payload)
        assert shm.read_block(name, 128, len(payload)) == payload
        assert shm.segment_size(name) >= 4096
        with pytest.raises(Exception):
            shm.write_block(name, 4096 - 1, b"xx")  # over the end
    finally:
        shm.release_segment(name, unlink=True)
    from repro.errors import SegmentGone

    with pytest.raises(SegmentGone):
        shm.segment_size(name)


# ---------------------------------------------------------------------------
# a pool that refuses seats: the seat degrades loudly, on attach and on
# reconnect (worker_degraded event + dist_seats_degraded gauge)
# ---------------------------------------------------------------------------

@contextmanager
def _refusing_pool(accept_seats):
    """A fake ``repro worker-pool`` that attaches sessions and accepts the
    first ``accept_seats`` seat hellos, refusing every later one. An
    accepted seat relays a ``lost`` frame for its first batch and closes,
    as the real pool does when its worker dies."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.2)
    hellos = itertools.count()
    done = threading.Event()

    def serve(conn):
        try:
            hello = recv_frame(conn)
            if hello["op"] == "attach":
                send_frame(conn, {"ok": True, "session": "fake", "pid": 0})
                while recv_frame(conn) is not None:  # heartbeat/abort/detach
                    send_frame(conn, {"ok": True})
            elif next(hellos) < accept_seats:
                send_frame(conn, {"ok": True})
                recv_frame(conn)  # the seat's first batch
                send_frame(conn, {"lost": "crash", "respawned": False,
                                  "exitcode": -9})
            else:
                send_frame(conn, {"ok": False, "degraded": True})
        except (OSError, TransportError):
            pass
        finally:
            conn.close()

    def accept():
        while not done.is_set():
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            threading.Thread(target=serve, args=(conn,), daemon=True).start()

    acceptor = threading.Thread(target=accept, daemon=True)
    acceptor.start()
    try:
        yield f"127.0.0.1:{listener.getsockname()[1]}"
    finally:
        done.set()
        acceptor.join(timeout=5.0)
        listener.close()


def _degraded_events(rt):
    return [e for e in rt.events.events() if e["kind"] == "worker_degraded"]


def test_seats_refused_at_attach_degrade_loudly():
    rt = Runtime()
    with _refusing_pool(accept_seats=0) as addr:
        ex = DistExecutor(rt, pool=addr, workers=2)
        for i in range(4):
            rt.add_task(Task(f"t{i}", partial(_identity, i)))
        ex.run(timeout=60.0)
    assert {t.outputs["out"] for t in rt.graph.tasks()} == set(range(4))
    assert [ex.supervisor.alive(w) for w in range(2)] == [False, False]
    assert rt.metrics.value("dist_seats_degraded") == 2.0
    degraded = _degraded_events(rt)
    assert sorted(e["worker"] for e in degraded) == [0, 1]
    assert all(e["reason"] == "pool refused seat" and e["pool"] == addr
               for e in degraded)
    assert ex.tasks_inline == 4


def test_seat_refused_at_reconnect_degrades_loudly():
    rt = Runtime()
    with _refusing_pool(accept_seats=1) as addr:
        ex = DistExecutor(rt, pool=addr, workers=1, batch_max=1)
        rt.add_task(Task("t0", partial(_identity, 7)))
        ex.run(timeout=60.0)
    assert rt.graph.get("t0").outputs == {"out": 7}
    crashes = [e for e in rt.events.events() if e["kind"] == "worker_crash"]
    assert [(e["reason"], e["exitcode"]) for e in crashes] == [("crash", -9)]
    assert rt.metrics.value("dist_seat_lost", cause="crash") == 1
    assert rt.metrics.value("dist_seats_degraded") == 1.0
    degraded = _degraded_events(rt)
    assert [(e["worker"], e["reason"]) for e in degraded] == [
        (0, "pool refused seat")]
    assert ex.tasks_inline == 1


# ---------------------------------------------------------------------------
# adversarial workers: the dist half of the serve-layer hang regressions.
# Both links must turn every wire-level attack into a prompt typed
# WorkerLost at WorkerSupervisor.recv_reply — the recovery path — never a
# hang, and name it in one loss vocabulary.
# ---------------------------------------------------------------------------

class _LiveProcess:
    """Stand-in for a pipe seat's worker process that never exits: its
    sentinel is a pipe nobody writes to."""

    exitcode = None

    def __init__(self):
        self.sentinel, self._writer = multiprocessing.Pipe(duplex=False)


def _supervisor_with_fake_seat(link="socket"):
    """A one-seat supervisor whose seat 0 is wired to a peer the test
    controls, with a batch of 5 payloads pretended in flight."""
    rt = Runtime(metrics=MetricsRegistry(), events=EventLog())
    if link == "socket":
        sup = WorkerSupervisor(RemotePool("127.0.0.1:1"), 1, runtime=rt)
        ours, theirs = socket.socketpair()
    else:
        sup = WorkerSupervisor(PipeLink(multiprocessing.get_context()), 1,
                               runtime=rt)
        ours, theirs = multiprocessing.Pipe()
        sup._slots[0].proc = _LiveProcess()
    seat = sup._slots[0]
    seat.conn = ours
    seat.sent = 5
    return sup, theirs


@pytest.mark.parametrize("attack,cause", [
    (b"\x00\x00", "protocol"),                          # truncated header
    (struct.pack(">I", 100) + b'{"par', "protocol"),    # truncated body
    (struct.pack(">I", MAX_FRAME_BYTES + 1), "protocol"),  # oversize
    (struct.pack(">I", 9) + b"[1, 2, 3]", "protocol"),  # non-dict JSON
    (b"", "crash"),                                     # clean EOF
])
def test_recv_reply_adversarial_frames(attack, cause):
    sup, evil = _supervisor_with_fake_seat()
    if attack:
        evil.sendall(attack)
    evil.close()
    with pytest.raises(WorkerLost) as exc:
        sup.recv_reply(0, timeout_s=5.0)
    assert exc.value.cause == cause


def test_recv_reply_pipe_eof_is_a_crash():
    sup, peer = _supervisor_with_fake_seat("pipe")
    peer.close()
    with pytest.raises(WorkerLost) as exc:
        sup.recv_reply(0, timeout_s=5.0)
    assert exc.value.cause == "crash"


@pytest.mark.parametrize("link", ["socket", "pipe"])
def test_recv_reply_silent_pool_is_a_hang_not_a_wedge(link, monkeypatch):
    monkeypatch.setattr(executor_dist, "NET_MARGIN_S", 0.1)
    sup, silent = _supervisor_with_fake_seat(link)
    try:
        with pytest.raises(WorkerLost) as exc:
            sup.recv_reply(0, timeout_s=0.2)
        assert exc.value.cause == "hang"
    finally:
        silent.close()


@pytest.mark.parametrize("link", ["socket", "pipe"])
def test_recv_reply_out_of_sequence_is_protocol_loss(link):
    sup, peer = _supervisor_with_fake_seat(link)
    try:
        if link == "socket":
            payload = encode_blob(pickle.dumps(("x", None),
                                               protocol=PAYLOAD_PROTOCOL))
            send_frame(peer, {"seq": 3, "status": "ok",
                              "payload_b64": payload})
        else:
            peer.send((3, "ok", ("x", None)))
        with pytest.raises(WorkerLost) as exc:
            sup.recv_reply(0, timeout_s=5.0)
        assert exc.value.cause == "protocol"
    finally:
        peer.close()


def test_recv_reply_relayed_loss_carries_cause():
    sup, peer = _supervisor_with_fake_seat()
    try:
        send_frame(peer, {"lost": "crash", "respawned": True,
                          "exitcode": -9})
        with pytest.raises(WorkerLost) as exc:
            sup.recv_reply(0, timeout_s=5.0)
        assert exc.value.cause == "crash"
        assert exc.value.exitcode == -9
    finally:
        peer.close()
