"""Distributed executor: the process back-end's coordinator, with its
worker pool on the far side of a TCP connection.

:class:`DistExecutor` *is* :class:`~repro.sre.executor_procs.ProcessExecutor`
— same batching, work-stealing, retry/quarantine and streaming-reply
machinery, and the same :class:`~repro.sre.executor_procs.WorkerSupervisor`
seat state machine — whose supervisor drives its seats over a socket link
instead of a pipe link. :class:`RemotePool` is that link: each seat is one
connection to a session of a remote ``repro worker-pool`` daemon
(:mod:`repro.sre.worker_pool`), speaking :mod:`repro.serve.wire`
length-prefixed JSON frames.

What the socket link changes, and what it does not:

* **Transport** — payload frames ride base64 in ``batch`` frames; the
  streamed one-reply-per-payload protocol is preserved verbatim
  (``seq``/``status``/``payload_b64``), so per-payload deadlines, the
  supervisor's reply-sequence check and head-of-line behaviour match the
  local back-end.
* **shm** — shared memory cannot cross hosts, so the
  :class:`~repro.sre.shm.BlockRef` seam is re-keyed through a chunked
  block push: before a batch ships, every referenced segment is
  materialised on the pool (attached natively when the pool shares the
  coordinator's host — still zero-copy — or created and filled through
  ``chunk`` ops otherwise), after which the refs resolve remotely exactly
  as they do locally.
* **Crash/hang recovery** — the supervisor's respawn is *reconnect with a
  bumped incarnation*: one seat connection carries exactly one worker
  incarnation, any :class:`~repro.errors.WorkerLost` in either direction
  poisons the connection, and reopening the seat opens a fresh one (the
  pool recycles the seat's worker if it held in-flight state). Stale
  frames die with the old socket, which is what keeps reply sequences
  unambiguous.
* **Abort flags** — a write to ``abort_flags[wid]`` becomes a control-op
  round trip on value *transitions*; the raise path is timed into the
  ``dist_abort_rtt_us`` histogram (the cross-host cost of tolerant
  speculation's destroy signal).
* **Pool loss** — a heartbeat thread probes the control connection; if
  the pool dies wholesale the link is lost, every seat degrades and the
  run completes coordinator-inline, same contract as a seat exhausting
  its respawn budget.

See ``docs/distributed.md`` for the wire protocol and a worked
post-mortem of a killed remote worker.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time
from typing import Any

from repro.errors import SchedulingError, SegmentGone, TransportError, WorkerLost
from repro.obs.metrics import MetricsRegistry
from repro.serve.wire import (TRACEPARENT_KEY, close_socket, decode_blob,
                              encode_blob, recv_frame, send_frame)
from repro.sre import shm
from repro.sre.executor_procs import (DEFAULT_DISPATCH_TIMEOUT_S,
                                      ProcessExecutor)
from repro.sre.registry import register_executor
from repro.sre.runtime import Runtime

__all__ = ["RemotePool", "DistExecutor"]

#: Control-connection heartbeat interval (seconds).
HEARTBEAT_S = 5.0
#: TCP connect, seat handshake and control-op deadline (seconds).
CONNECT_TIMEOUT_S = 10.0
#: How much longer than the pool-enforced per-payload deadline a seat
#: waits for a reply, so the pool's ``lost`` relay — which names the true
#: cause: crash vs hang vs protocol — wins the race against the
#: coordinator's own socket timeout.
NET_MARGIN_S = 2.0
#: Block-push granularity for cross-host segments (bytes).
CHUNK_BYTES = 1 << 20

#: abort relays are small fixed-size control ops — µs-scale on loopback,
#: ms-scale across real links; buckets cover both regimes.
_ABORT_RTT_BUCKETS = (50.0, 100.0, 200.0, 500.0, 1e3, 2e3, 5e3,
                      1e4, 5e4, 1e5, 1e6)


class _RemoteAbortFlags:
    """``abort_flags`` shim: looks like the pipe link's shared byte
    array, but a write that *changes* a seat's value relays it to the
    pool as an ``abort`` control op (reads stay local — the coordinator
    is the only writer, so its shadow copy is authoritative)."""

    def __init__(self, pool: "RemotePool", workers: int) -> None:
        self._pool = pool
        self._values = [0] * workers

    def __getitem__(self, wid: int) -> int:
        return self._values[wid]

    def __setitem__(self, wid: int, value: int) -> None:
        value = 1 if value else 0
        if self._values[wid] == value:
            return  # no transition: nothing to relay
        self._values[wid] = value
        self._pool._send_abort(wid, value)

    def __len__(self) -> int:
        return len(self._values)


class RemotePool:
    """The socket link: a :class:`~repro.sre.executor_procs.WorkerSupervisor`
    seat is one connection to a remote ``repro worker-pool`` session.

    Starting the link attaches a session over a control connection (and
    starts its heartbeat); the final harvest detaches it, folding the
    pool's metrics/events snapshot into the job's runtime. Every batch is
    preceded by the block push that makes its shared-memory refs resolve
    on the pool.

    Args:
        address: ``"host:port"`` of a running pool daemon.
        dispatch_timeout_s: per-payload reply deadline, shipped at attach
            and enforced on the pool side (where hangs are detected) —
            a seat waits :data:`NET_MARGIN_S` longer for each reply.
    """

    METRICS = {
        "lost": ("dist_seat_lost",
                 "seat connections poisoned by a worker loss"),
        "respawned": ("dist_seat_reconnects",
                      "seat reconnects with a bumped incarnation (remote "
                      "respawns)"),
        "degraded": ("dist_seats_degraded",
                     "seats fallen back to coordinator-inline execution"),
    }

    def __init__(self, address: str, *,
                 dispatch_timeout_s: float = DEFAULT_DISPATCH_TIMEOUT_S
                 ) -> None:
        host, sep, port = address.rpartition(":")
        if not sep or not host or not port.isdigit():
            raise SchedulingError(
                f"pool address must be 'host:port', got {address!r}")
        self.address = address
        self._host, self._port = host, int(port)
        self.dispatch_timeout_s = dispatch_timeout_s
        self.event_fields = {"pool": address}
        #: set to the seats' degrade reason when the control connection
        #: dies (heartbeat, abort relay, block push or detach failure):
        #: the supervisor degrades every seat instead of reconnecting.
        self.lost: str | None = None
        self.session: str | None = None
        self._ctl: socket.socket | None = None
        self._ctl_lock = threading.RLock()
        #: segment name -> True if the pool *created* a copy (chunks must
        #: be pushed for its blocks), False if it attached natively.
        self._pushed_segments: dict[str, bool] = {}
        self._pushed_blocks: set[tuple[str, int]] = set()
        self._push_lock = threading.Lock()
        self._hb_stop = threading.Event()
        self._hb_thread: threading.Thread | None = None
        self._stopped = False

    def bind(self, sup: Any) -> None:
        self.sup = sup
        self.abort_flags = _RemoteAbortFlags(self, sup.n_workers)

    def bind_metrics(self, m: MetricsRegistry) -> None:
        self._m_abort_rtt = m.histogram(
            "dist_abort_rtt_us",
            "round-trip of one cross-host abort-flag raise, microseconds",
            buckets=_ABORT_RTT_BUCKETS)
        self._m_heartbeats = m.counter(
            "dist_heartbeats", "pool heartbeat probes", labelnames=("outcome",))
        self._m_batches = m.counter(
            "dist_batches_sent", "batch frames shipped to the pool")
        self._m_replies = m.counter(
            "dist_replies", "streamed per-payload replies received")
        self._m_blocks_pushed = m.counter(
            "dist_blocks_pushed",
            "shared-memory blocks pushed to the pool over the wire")
        self._m_push_bytes = m.counter(
            "dist_block_push_bytes", "bytes of pushed block chunks")
        self._m_segments = m.counter(
            "dist_segments_materialized",
            "segments materialised on the pool",
            labelnames=("mode",))  # native (same-host attach) | copy

    # ------------------------------------------------------------------
    # session lifecycle: attach on start, detach on the final harvest
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Attach a session over the control connection."""
        sup = self.sup
        ctl = socket.create_connection((self._host, self._port),
                                       timeout=CONNECT_TIMEOUT_S)
        self._ctl = ctl
        plan = sup.fault_plan
        send_frame(ctl, {
            "op": "attach", "workers": sup.n_workers,
            "fault": plan.spec() if plan is not None else None,
            "dispatch_timeout_s": self.dispatch_timeout_s,
        })
        reply = recv_frame(ctl)
        if reply is None or not reply.get("ok"):
            err = (reply or {}).get("error", "pool closed the connection")
            close_socket(ctl)
            self._ctl = None
            raise SchedulingError(
                f"worker pool at {self.address} refused attach: {err}")
        self.session = reply["session"]
        sup.runtime.events.emit(
            "remote_pool_attach", pool=self.address, session=self.session,
            workers=sup.n_workers, pool_pid=reply.get("pid"))
        self._hb_thread = threading.Thread(
            target=self._heartbeat_loop, name="dist-heartbeat", daemon=True)
        self._hb_thread.start()

    def harvest(self, seats: list, final: bool) -> None:
        """Remote worker intervals come home only in the detach snapshot:
        a mid-run flush is a no-op, and the final harvest detaches."""
        if final:
            self._detach()

    def _detach(self) -> None:
        """Tear the session down and fold the pool's metrics/events home."""
        if self._stopped:
            return
        self._stopped = True
        self._hb_stop.set()
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=HEARTBEAT_S + 5.0)
        runtime = self.sup.runtime
        snapshot = None
        with self._ctl_lock:
            if self._ctl is not None and not self.lost:
                try:
                    # Generous deadline: detach stops every remote worker
                    # and runs the final flush harvest before replying.
                    reply = self._ctl_call(
                        {"op": "detach"},
                        timeout_s=60.0 + self.sup.harvest_timeout_s
                        * self.sup.n_workers)
                    if reply.get("ok") and reply.get("snapshot_b64"):
                        snapshot = pickle.loads(
                            decode_blob(reply["snapshot_b64"]))
                except (TransportError, OSError, pickle.PickleError):
                    self.lost = "pool lost"
            close_socket(self._ctl)
            self._ctl = None
        if snapshot is not None:
            runtime.metrics.merge_snapshot(snapshot["metrics"])
            runtime.events.merge_remote(self.address, snapshot["events"])
        runtime.events.emit(
            "remote_pool_detach", pool=self.address, session=self.session,
            snapshot=snapshot is not None)

    # ------------------------------------------------------------------
    # seats: one connection per worker incarnation
    # ------------------------------------------------------------------
    def open(self, seat: Any) -> str | None:
        """Connect ``seat`` for its incarnation; the pool recycles its
        local worker if the dead connection left in-flight state behind,
        so an accepted handshake always lands on a clean reply stream."""
        sock = socket.create_connection((self._host, self._port),
                                        timeout=CONNECT_TIMEOUT_S)
        send_frame(sock, {"op": "seat", "session": self.session,
                          "wid": seat.wid, "incarnation": seat.incarnation})
        reply = recv_frame(sock)
        if reply is None:
            close_socket(sock)
            raise TransportError("pool closed the seat handshake")
        if not reply.get("ok"):
            close_socket(sock)
            return "pool refused seat"  # its local respawn budget is spent
        sock.settimeout(None)  # recv applies per-call deadlines
        seat.conn = sock
        return None

    def send(self, seat: Any, traceparent: str | None,
             frames: list[bytes]) -> None:
        try:
            self._push_payload_blocks(frames)
            send_frame(seat.conn, {
                "op": "batch", "n": len(frames),
                "frames": [encode_blob(f) for f in frames],
                TRACEPARENT_KEY: traceparent,
            })
        except (TransportError, OSError):
            raise WorkerLost(seat.wid, "crash") from None
        self._m_batches.inc()

    def recv(self, seat: Any, timeout_s: float) -> tuple:
        """One streamed reply. A socket-level timeout means the *pool
        side* went quiet (it enforces ``timeout_s`` against the worker
        and relays the loss itself) — surfaced as a hang."""
        wid = seat.wid
        seat.conn.settimeout(timeout_s + NET_MARGIN_S)
        try:
            reply = recv_frame(seat.conn)
        except TimeoutError:  # before OSError: socket.timeout subclasses it
            raise WorkerLost(wid, "hang") from None
        except TransportError:
            raise WorkerLost(wid, "protocol") from None
        except OSError:
            raise WorkerLost(wid, "crash") from None
        if reply is None:
            raise WorkerLost(wid, "crash")
        if "lost" in reply:
            # The pool detected the loss first and already respawned (or
            # degraded) its local worker; our reconnect syncs with it.
            raise WorkerLost(wid, str(reply["lost"]),
                             exitcode=reply.get("exitcode"))
        try:
            payload = pickle.loads(decode_blob(reply["payload_b64"]))
        except Exception:  # noqa: BLE001 - undecodable reply == protocol loss
            raise WorkerLost(wid, "protocol") from None
        self._m_replies.inc()
        return reply.get("seq"), str(reply.get("status")), payload

    def close(self, seat: Any, grace_s: float = 0.0) -> None:
        """Drop the seat connection — the remote analogue of "the process
        is guaranteed dead": whatever the old incarnation still had in
        flight can never reach the reply stream again."""
        close_socket(seat.conn)
        seat.conn = None

    # ------------------------------------------------------------------
    # control channel: heartbeat + abort relay
    # ------------------------------------------------------------------
    def _mark_lost(self, why: str) -> None:
        if self.lost:
            return
        self.lost = "pool lost"
        self.sup.runtime.events.emit("remote_pool_lost", pool=self.address,
                                     session=self.session, reason=why)

    def _ctl_call(self, obj: dict, timeout_s: float) -> dict:
        """One control-op round trip. Caller holds ``_ctl_lock``."""
        if self._ctl is None:
            raise TransportError("control connection is closed")
        self._ctl.settimeout(timeout_s)
        send_frame(self._ctl, obj)
        reply = recv_frame(self._ctl)
        if reply is None:
            raise TransportError("pool closed the control connection")
        return reply

    def _send_abort(self, wid: int, value: int) -> None:
        """Relay one abort-flag transition to the pool (cross-host
        destroy propagation). Raises are timed into ``dist_abort_rtt_us``;
        a failed relay marks the pool lost (the flag would otherwise be
        silently ignored and a doomed task would run to completion)."""
        with self._ctl_lock:
            if self._ctl is None or self.lost or self._stopped:
                return
            t0 = time.perf_counter()
            try:
                self._ctl_call({"op": "abort", "wid": wid, "value": value},
                               timeout_s=CONNECT_TIMEOUT_S)
            except (TransportError, OSError):
                self._mark_lost("abort relay failed")
                return
            if value:
                self._m_abort_rtt.observe(
                    (time.perf_counter() - t0) * 1e6)

    def _heartbeat_loop(self) -> None:
        while not self._hb_stop.wait(timeout=HEARTBEAT_S):
            with self._ctl_lock:
                if self._stopped or self.lost or self._ctl is None:
                    return
                try:
                    self._ctl_call({"op": "heartbeat"},
                                   timeout_s=CONNECT_TIMEOUT_S)
                except (TransportError, OSError):
                    self._m_heartbeats.labels(outcome="lost").inc()
                    self._mark_lost("heartbeat failed")
                    return
            self._m_heartbeats.labels(outcome="ok").inc()

    # ------------------------------------------------------------------
    # block push: the BlockRef seam, re-keyed over the wire
    # ------------------------------------------------------------------
    def _push_payload_blocks(self, frames: list[bytes]) -> None:
        """Materialise every segment/block the batch references on the
        pool before the batch ships, so its refs resolve remotely.

        Same-host pools attach the segment natively (zero bytes moved);
        cross-host pools get a created copy filled by ``chunk`` ops. A
        segment that vanishes mid-push is skipped — the worker's own
        ``segment-gone`` path reruns those payloads inline, exactly as it
        does for a locally-released segment.
        """
        for frame in frames:
            if b"BlockRef" not in frame:
                continue  # cheap negative: no pickled refs inside
            try:
                obj = pickle.loads(frame)
            except Exception:  # noqa: BLE001 - worker will report it
                continue
            for ref in shm.iter_refs(obj):
                self._push_block(ref)

    def _push_block(self, ref: "shm.BlockRef") -> None:
        with self._push_lock:
            if ref.key in self._pushed_blocks:
                return
            created = self._pushed_segments.get(ref.segment)
            if created is None:
                created = self._push_segment(ref.segment)
                if created is None:
                    self._pushed_blocks.add(ref.key)  # gone: worker reruns
                    return
            if not created:  # native same-host attach: nothing to move
                self._pushed_blocks.add(ref.key)
                return
            try:
                data = shm.read_block(ref.segment, ref.offset, ref.length)
            except SegmentGone:
                self._pushed_blocks.add(ref.key)
                return
            for off in range(0, len(data), CHUNK_BYTES):
                chunk = data[off:off + CHUNK_BYTES]
                with self._ctl_lock:
                    if self._ctl is None or self.lost:
                        return
                    try:
                        self._ctl_call(
                            {"op": "chunk", "segment": ref.segment,
                             "offset": ref.offset + off,
                             "data_b64": encode_blob(chunk)},
                            timeout_s=CONNECT_TIMEOUT_S)
                    except (TransportError, OSError):
                        self._mark_lost("block push failed")
                        return
                self._m_push_bytes.inc(len(chunk))
            self._m_blocks_pushed.inc()
            self._pushed_blocks.add(ref.key)

    def _push_segment(self, name: str) -> bool | None:
        """Materialise ``name`` on the pool; True=copy, False=native
        attach, None=segment already gone locally."""
        try:
            size = shm.segment_size(name)
        except SegmentGone:
            return None
        with self._ctl_lock:
            if self._ctl is None or self.lost:
                raise TransportError("pool lost")
            reply = self._ctl_call({"op": "segment", "name": name,
                                    "size": size},
                                   timeout_s=CONNECT_TIMEOUT_S)
        if not reply.get("ok"):
            raise TransportError(
                f"pool refused segment {name!r}: {reply.get('error')}")
        created = bool(reply.get("created"))
        self._pushed_segments[name] = created
        self._m_segments.labels(mode="copy" if created else "native").inc()
        return created


class DistExecutor(ProcessExecutor):
    """The ``"dist"`` back-end: a ProcessExecutor whose supervisor drives
    its seats over a :class:`RemotePool` socket link.

    Args:
        pool: ``"host:port"`` of a running ``repro worker-pool``.
        Everything else: :class:`ProcessExecutor`'s keywords — same
        policies, batching, stealing, retry/quarantine semantics.
        ``fault_plan`` ships to the pool at attach and arms on the remote
        workers — :mod:`repro.testing.faults` maps onto sockets verbatim
        (drop/delay/hang/kill all exercise the reconnect path instead of
        the pipe path).
    """

    def __init__(self, runtime: Runtime, *, pool: str, **options: Any) -> None:
        local_only = sorted({"start_method", "supervisor"} & options.keys())
        if local_only:  # seats are sockets to the pool, never local forks
            raise TypeError(f"DistExecutor does not take {local_only}")
        self._pool_address = pool
        super().__init__(runtime, **options)

    def _make_link(self) -> RemotePool:
        return RemotePool(self._pool_address,
                          dispatch_timeout_s=self.dispatch_timeout_s)


register_executor("dist", DistExecutor)
