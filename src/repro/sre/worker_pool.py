"""`repro worker-pool`: a WorkerSupervisor behind a TCP socket.

The distributed back-end (:mod:`repro.sre.executor_dist`) splits the
process back-end's coordinator/worker pair across hosts. This module is
the worker half: a long-lived daemon that hosts one
:class:`~repro.sre.executor_procs.WorkerSupervisor` over a pipe link per
attached coordinator session and proxies the streaming per-payload reply
protocol between the coordinator's sockets and the supervisor's pipes.

Framing is :mod:`repro.serve.wire` length-prefixed JSON — the same
frames, caps and failure semantics as the serve daemon — with payload
and reply bytes riding as base64 (``frames`` / ``payload_b64``).

Topology: one **control** connection per session plus one **data**
connection per worker seat.

Control connection ops (request → one reply frame each):

=============  ========================================================
op             meaning
=============  ========================================================
``attach``     create a session: spawn+start a ``WorkerSupervisor``
               with the requested seat count, arm the shipped fault
               plan (:mod:`repro.testing.faults` — drop/delay/hang/kill
               work on remote pools exactly as they do locally), reply
               with the ``session`` token
``heartbeat``  liveness probe (the coordinator's pool-loss detector)
``abort``      set/clear one seat's abort flag — the cross-host destroy
               relay; the ack closes the coordinator's
               ``dist_abort_rtt_us`` measurement
``segment``    materialise a shared-memory segment by name (attach on
               the coordinator's own host, create elsewhere) — the
               chunked-stream replacement for shm on the wire
``chunk``      one pushed block chunk landing into a created segment
``detach``     stop the session's workers, reply with the final
               pickled metrics/events snapshot (``snapshot_b64``), and
               tear the session down
``shutdown``   ack, then stop the whole pool daemon
=============  ========================================================

Data (seat) connections carry ``{"op": "seat", "session", "wid",
"incarnation"}`` as a hello, then ``batch`` frames downstream and one
reply frame per payload upstream. **One seat connection carries exactly
one worker incarnation's traffic**: any worker loss is relayed as a
``{"lost": cause, "respawned": bool}`` frame and the connection is
closed — the coordinator reconnects with a bumped incarnation, and a
reconnect onto a seat whose previous connection left in-flight state
behind recycles the local worker first. That closed-socket barrier is
what keeps the streamed reply sequence unambiguous across crashes.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import socket
import threading
import uuid
from dataclasses import dataclass

from repro.errors import ExperimentError, TransportError, WorkerLost
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import parse_traceparent
from repro.serve.wire import (TRACEPARENT_KEY, close_socket, decode_blob,
                              encode_blob, recv_frame, send_frame)
from repro.sre import shm
from repro.sre.executor_procs import (DEFAULT_DISPATCH_TIMEOUT_S,
                                      DEFAULT_HARVEST_TIMEOUT_S, PipeLink,
                                      WorkerSupervisor)
from repro.sre.runtime import Runtime
from repro.sre.task import PAYLOAD_PROTOCOL
from repro.testing.faults import FaultPlan

__all__ = ["PoolSettings", "WorkerPoolServer"]


@dataclass
class PoolSettings:
    """Every knob of the pool daemon, CLI-mappable and test-injectable."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port back from .port
    #: written with the bound port once listening — CI's rendezvous.
    port_file: str | None = None
    #: default chaos plan armed on every attached session's workers when
    #: the coordinator ships none — `repro worker-pool --fault kill@3`
    #: injects faults on the *remote* side of the wire.
    fault_plan: str | None = None
    #: respawn budget per seat (per session).
    max_respawns: int = 3
    #: shutdown grace per worker for the final metrics/events harvest.
    harvest_timeout_s: float = DEFAULT_HARVEST_TIMEOUT_S
    #: cap on seats a single attach may request.
    max_workers: int = 16
    #: JSONL path for the pool's own lifecycle events (attach/detach).
    events_out: str | None = None


class _Seat:
    """Pool-side per-seat connection state."""

    __slots__ = ("wid", "conn", "thread", "gen", "dirty", "seq", "op_lock")

    def __init__(self, wid: int) -> None:
        self.wid = wid
        self.conn: socket.socket | None = None
        self.thread: threading.Thread | None = None
        #: bumped on every seat (re)connect; a handler whose gen is stale
        #: has been superseded and must exit without touching the worker.
        self.gen = 0
        #: True while the worker may hold in-flight or desynchronised
        #: state from a previous connection — a fresh attach recycles it.
        self.dirty = False
        #: per-connection relay sequence (reset at each handshake).
        self.seq = 0
        #: serialises note_lost/respawn between a seat handler and a
        #: superseding attach.
        self.op_lock = threading.Lock()


class _Session:
    """One attached coordinator: a started supervisor + its accounting."""

    def __init__(self, sid: str, supervisor: WorkerSupervisor,
                 runtime: Runtime, dispatch_timeout_s: float) -> None:
        self.sid = sid
        self.supervisor = supervisor
        self.runtime = runtime
        self.dispatch_timeout_s = dispatch_timeout_s
        self.seats = [_Seat(w) for w in range(supervisor.n_workers)]
        self.segments_created: list[str] = []
        self.segments_attached: list[str] = []
        self.lock = threading.Lock()
        self.stopped = False


def _readable(sock: socket.socket) -> bool:
    try:
        ready, _w, _x = select.select([sock], [], [], 0)
    except (OSError, ValueError):  # closed under us
        return False
    return bool(ready)


class WorkerPoolServer:
    """The pool daemon. ``start()`` binds and spins the accept loop;
    ``stop()`` tears every session down (workers stopped, pushed
    segments released, sockets closed)."""

    def __init__(self, settings: PoolSettings | None = None) -> None:
        self.settings = settings or PoolSettings()
        FaultPlan.parse(self.settings.fault_plan)  # validate eagerly
        self.events = EventLog(path=self.settings.events_out,
                               meta={"app": "worker-pool"})
        self._sessions: dict[str, _Session] = {}
        self._lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self.shutdown_requested = threading.Event()
        self._stopping = False
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            self._ctx = multiprocessing.get_context()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._listener is None:
            raise ExperimentError("worker pool is not started")
        return self._listener.getsockname()[1]

    def start(self) -> "WorkerPoolServer":
        s = self.settings
        self._listener = socket.create_server(
            (s.host, s.port), backlog=16, reuse_port=False)
        self._listener.settimeout(0.2)  # accept loop polls the stop flag
        t = threading.Thread(target=self._accept_loop,
                             name="pool-accept", daemon=True)
        t.start()
        self._threads.append(t)
        self.events.emit("pool_start", host=s.host, port=self.port,
                         pid=os.getpid(), fault=s.fault_plan)
        if s.port_file:
            with open(s.port_file, "w", encoding="utf-8") as fh:
                fh.write(str(self.port))
        return self

    def stop(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        self.shutdown_requested.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - defensive
                pass
        with self._lock:
            sids = list(self._sessions)
        for sid in sids:
            self._teardown_session(sid)
        for t in self._threads:
            t.join(timeout=10.0)
        self.events.emit("pool_stop")
        self.events.close()

    def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` op (or KeyboardInterrupt), then stop."""
        try:
            while not self.shutdown_requested.wait(timeout=0.5):
                pass
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        self.stop()

    # ------------------------------------------------------------------
    # connection routing
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self.shutdown_requested.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:  # listener closed under us: shutting down
                return
            t = threading.Thread(target=self._serve_hello, args=(conn,),
                                 name="pool-conn", daemon=True)
            t.start()

    def _serve_hello(self, conn: socket.socket) -> None:
        try:
            hello = recv_frame(conn)
        except (TransportError, OSError):
            close_socket(conn)
            return
        if hello is None:
            close_socket(conn)
            return
        op = hello.get("op")
        if op == "attach":
            self._serve_control(conn, hello)
        elif op == "seat":
            self._serve_seat(conn, hello)
        elif op == "ping":
            self._reply(conn, {"ok": True, "op": "ping",
                               "pid": os.getpid()})
            close_socket(conn)
        elif op == "shutdown":
            self._reply(conn, {"ok": True})
            close_socket(conn)
            self.shutdown_requested.set()
        else:
            self._reply(conn, {"ok": False, "error": f"unknown op {op!r}"})
            close_socket(conn)

    @staticmethod
    def _reply(conn: socket.socket, obj: dict) -> bool:
        try:
            send_frame(conn, obj)
            return True
        except (TransportError, OSError):
            return False

    # ------------------------------------------------------------------
    # control connection: attach + session ops
    # ------------------------------------------------------------------
    def _serve_control(self, conn: socket.socket, req: dict) -> None:
        try:
            sess = self._attach(req)
        except (ExperimentError, ValueError, TypeError, OSError) as exc:
            self._reply(conn, {"ok": False,
                               "error": f"{type(exc).__name__}: {exc}"})
            close_socket(conn)
            return
        self._reply(conn, {"ok": True, "session": sess.sid,
                           "workers": sess.supervisor.n_workers,
                           "pid": os.getpid()})
        try:
            while True:
                try:
                    frame = recv_frame(conn)
                except (TransportError, OSError):
                    return  # coordinator died or sent garbage: teardown
                if frame is None:
                    return
                op = frame.get("op")
                handler = getattr(self, f"_ctl_{op}", None) \
                    if isinstance(op, str) else None
                if handler is None:
                    reply = {"ok": False, "error": f"unknown op {op!r}"}
                else:
                    try:
                        reply = handler(sess, frame)
                    except Exception as exc:  # noqa: BLE001 - reply, don't die
                        reply = {"ok": False,
                                 "error": f"{type(exc).__name__}: {exc}"}
                if not self._reply(conn, reply):
                    return
                if op == "detach":
                    return
                if op == "shutdown":
                    self.shutdown_requested.set()
                    return
        finally:
            close_socket(conn)
            self._teardown_session(sess.sid)

    def _attach(self, req: dict) -> _Session:
        s = self.settings
        workers = int(req.get("workers", 4))
        if not 1 <= workers <= s.max_workers:
            raise ExperimentError(
                f"attach wants {workers} seats; this pool allows "
                f"1..{s.max_workers}")
        fault = req.get("fault")
        plan = FaultPlan.parse(fault if fault is not None else s.fault_plan)
        dispatch_timeout_s = float(
            req.get("dispatch_timeout_s", DEFAULT_DISPATCH_TIMEOUT_S))
        runtime = Runtime(metrics=MetricsRegistry(), events=EventLog(),
                          track_memory=False)
        supervisor = WorkerSupervisor(
            PipeLink(self._ctx), workers, runtime=runtime, fault_plan=plan,
            max_respawns=s.max_respawns,
            harvest_timeout_s=s.harvest_timeout_s)
        supervisor.start()
        sess = _Session(uuid.uuid4().hex, supervisor, runtime,
                        dispatch_timeout_s)
        with self._lock:
            self._sessions[sess.sid] = sess
        # Lands in the coordinator's event log at detach (the snapshot
        # merge), tagged with this pool's clock.
        sess.runtime.events.emit(
            "remote_pool_attach", session=sess.sid, workers=workers,
            fault=plan.spec() if plan is not None else None,
            pool_pid=os.getpid())
        self.events.emit("pool_session_attach", session=sess.sid,
                         workers=workers,
                         fault=plan.spec() if plan is not None else None)
        return sess

    def _ctl_heartbeat(self, sess: _Session, req: dict) -> dict:
        return {"ok": True}

    def _ctl_abort(self, sess: _Session, req: dict) -> dict:
        wid = int(req.get("wid", -1))
        if not 0 <= wid < sess.supervisor.n_workers:
            return {"ok": False, "error": f"no seat {wid}"}
        sess.supervisor.abort_flags[wid] = 1 if req.get("value") else 0
        return {"ok": True}

    def _ctl_segment(self, sess: _Session, req: dict) -> dict:
        name = str(req.get("name"))
        size = int(req.get("size", 0))
        if not name or size <= 0:
            return {"ok": False, "error": "segment needs name and size"}
        created = shm.materialize_segment(name, size)
        with sess.lock:
            target = (sess.segments_created if created
                      else sess.segments_attached)
            if name not in target:
                target.append(name)
        return {"ok": True, "created": created}

    def _ctl_chunk(self, sess: _Session, req: dict) -> dict:
        shm.write_block(str(req.get("segment")), int(req.get("offset", -1)),
                        decode_blob(req.get("data_b64", "")))
        return {"ok": True}

    def _ctl_detach(self, sess: _Session, req: dict) -> dict:
        self._stop_session(sess)
        snapshot = pickle.dumps(
            {"metrics": sess.runtime.metrics.snapshot(),
             "events": sess.runtime.events.events()},
            protocol=PAYLOAD_PROTOCOL)
        return {"ok": True, "snapshot_b64": encode_blob(snapshot)}

    def _ctl_shutdown(self, sess: _Session, req: dict) -> dict:
        return {"ok": True}

    # ------------------------------------------------------------------
    # session teardown
    # ------------------------------------------------------------------
    def _stop_session(self, sess: _Session) -> None:
        """Quiesce one session: invalidate seats, stop workers (final
        harvest folds their metrics/events into the session runtime)."""
        with sess.lock:
            if sess.stopped:
                return
            sess.stopped = True
            seats = list(sess.seats)
            for seat in seats:
                seat.gen += 1  # supersede every live handler
        for seat in seats:
            close_socket(seat.conn)
        for seat in seats:
            t = seat.thread
            if t is not None and t is not threading.current_thread():
                t.join(timeout=5.0)
        sess.supervisor.stop()

    def _teardown_session(self, sid: str) -> None:
        with self._lock:
            sess = self._sessions.pop(sid, None)
        if sess is None:
            return
        self._stop_session(sess)
        # Workers are down: pushed segment copies can be unlinked, and
        # same-host attachments just unmapped (the coordinator owns them).
        for name in sess.segments_created:
            shm.release_segment(name, unlink=True)
        for name in sess.segments_attached:
            shm.release_segment(name, unlink=False)
        self.events.emit("pool_session_detach", session=sess.sid)

    # ------------------------------------------------------------------
    # seat (data) connections
    # ------------------------------------------------------------------
    def _serve_seat(self, conn: socket.socket, hello: dict) -> None:
        sid = hello.get("session")
        wid = hello.get("wid")
        with self._lock:
            sess = self._sessions.get(sid) if isinstance(sid, str) else None
        if (sess is None or not isinstance(wid, int)
                or not 0 <= wid < sess.supervisor.n_workers):
            self._reply(conn, {"ok": False,
                               "error": f"unknown session/seat "
                                        f"{sid!r}/{wid!r}"})
            close_socket(conn)
            return
        seat = sess.seats[wid]
        with sess.lock:
            if sess.stopped:
                self._reply(conn, {"ok": False, "error": "session stopped"})
                close_socket(conn)
                return
            old = seat.conn
            seat.gen += 1
            my_gen = seat.gen
            seat.conn = conn
            seat.thread = threading.current_thread()
            seat.seq = 0
        close_socket(old)  # supersede: at most one live connection per seat
        sup = sess.supervisor
        with seat.op_lock:
            if seat.dirty and sup.alive(wid):
                # The previous connection died with payloads in flight:
                # the worker's pipe state is unknowable, so recycle it —
                # this *is* the reconnect-with-bumped-incarnation barrier.
                seq = sup.note_lost(wid, WorkerLost(wid, "hang"), [])
                with sess.runtime.events.cause(seq):
                    sup.respawn(wid)
                seat.dirty = False
            ok = sup.alive(wid)
        if not self._reply(conn, {"ok": bool(ok), "degraded": not ok,
                                  "incarnation":
                                      hello.get("incarnation", 0)}):
            close_socket(conn)
            return
        if not ok:
            close_socket(conn)
            return
        try:
            self._seat_loop(sess, seat, my_gen, conn)
        finally:
            with sess.lock:
                if seat.gen == my_gen and seat.conn is conn:
                    seat.conn = None
            close_socket(conn)

    def _seat_loop(self, sess: _Session, seat: _Seat, my_gen: int,
                   conn: socket.socket) -> None:
        sup = sess.supervisor
        wid = seat.wid
        owed = 0
        try:
            while seat.gen == my_gen:
                if owed == 0:
                    req = recv_frame(conn)  # idle seat: block for a batch
                    if req is None:
                        return
                    owed += self._forward(sess, seat, req)
                    continue
                # Service freshly-arrived batches without blocking, so
                # the worker's pipe never runs dry while we await replies.
                while _readable(conn):
                    req = recv_frame(conn)
                    if req is None:
                        return
                    owed += self._forward(sess, seat, req)
                status, payload = sup.recv_reply(
                    wid, sess.dispatch_timeout_s)
                owed -= 1
                if owed == 0:
                    seat.dirty = False  # idle again: nothing in flight
                seat.seq += 1
                send_frame(conn, {
                    "seq": seat.seq, "status": status,
                    "payload_b64": encode_blob(
                        pickle.dumps(payload, protocol=PAYLOAD_PROTOCOL)),
                })
        except WorkerLost as lost:
            with sess.lock:
                superseded = seat.gen != my_gen
            if superseded:
                return  # the new handler owns recovery
            with seat.op_lock:
                seq = sup.note_lost(wid, lost, [])
                with sess.runtime.events.cause(seq):
                    respawned = sup.respawn(wid)
                seat.dirty = False
            self._reply(conn, {"lost": lost.cause,
                               "respawned": bool(respawned),
                               "exitcode": lost.exitcode})
            # One incarnation per connection: close so the reply stream
            # can never interleave two workers' sequences.
            return
        except (TransportError, OSError):
            return  # conn died or was superseded; dirty state (if any)
            # is recycled by the next attach

    def _forward(self, sess: _Session, seat: _Seat, req: dict) -> int:
        """Decode one batch frame and ship it down the worker's pipe."""
        if req.get("op") != "batch":
            raise TransportError(
                f"unexpected seat op {req.get('op')!r} (want 'batch')")
        frames = [decode_blob(f) for f in req.get("frames", [])]
        if not frames:
            return 0
        ctx = parse_traceparent(req.get(TRACEPARENT_KEY))
        if ctx is not None:
            # supervisor.send stamps batch headers from the session
            # log's active context, exactly as the local back-end does.
            sess.runtime.events.set_trace_context(ctx)
        seat.dirty = True  # in-flight state exists until owed drains
        sess.supervisor.send(seat.wid, frames)
        return len(frames)
