"""Process-pool executor — the SRE across address spaces, outside the GIL.

The third back-end (after the simulated and threaded executors). Every
runtime decision — graph, queues, dispatch policy, speculation, rollback —
stays on the coordinator, exactly as on the other two back-ends; only task
*bodies* are shipped, as pickled ``(fn, inputs)`` payloads, to a pool of
worker processes. Pure-Python kernels therefore run truly in parallel:
one coordinator thread per worker blocks on its worker's pipe while the
worker computes, so the coordinator spends its time in I/O waits, not
bytecode.

This mirrors the paper's Cell back-end more closely than threads ever
could: a control processor runs the runtime, compute elements in separate
address spaces run kernels, and working sets cross the boundary explicitly
(with a per-task footprint budget in the spirit of the 32 KB local-store
cap — see :class:`~repro.platforms.localstore.LocalStore`).

Two transport refinements keep the pipe off the critical path:

* **shared-memory refs** — payloads built over a
  :class:`~repro.sre.shm.BlockStore` carry
  :class:`~repro.sre.shm.BlockRef` handles instead of block bytes; workers
  attach each segment lazily, once, and resolve refs zero-copy. The budget
  check counts the *referenced* bytes (``Task.payload_footprint``), not
  the handle bytes, and ``procs_payload_bytes_avoided`` accounts what
  stayed off the wire.
* **one bounded window per seat, with streaming replies** — when the
  ready queues hold more work than there are idle seats, a seat claims
  up to ``BATCH_MAX`` tasks and ships them all at once: small payloads
  ride along in one pipe message (one header + payload frames),
  amortising syscalls and wakeups across kernels, and one over
  ``BATCH_BYTES`` goes in a message of its own. The worker replies
  **once per payload**, not once per batch, and the coordinator completes
  each task the moment its reply lands — a fast batch-mate's result
  (often the histogram a verification check is waiting on) is never held
  hostage behind a slow member's body. Batching never starves
  parallelism: extras are claimed only while every idle seat still has a
  task left in the queues. A seat claims nothing it does not ship, so a
  straggling worker delays only the payloads already in its pipe; the
  rest of the work waits in the ready queues for whichever seat frees
  first — the paper's Cell multiple buffer, one window deep.

Not every task ships. The coordinator runs two kinds itself:

* **local tasks** (``Task.local``: control tasks — predict / verify /
  check — and cheap serial-chain links such as Huffman's reduce, offset
  and tree tasks) never enter a seat's queue. The thread that makes one
  ready runs it at once (:class:`~repro.sre.executor_base.LiveExecutor`),
  as the Cell PPE runs control code, so a serial chain or a check never
  waits behind a worker's pipe window — the paper's "highest priority,
  no matter where they are located in the pipeline";
* **unpicklable payloads** (closures over coordinator state) that a seat
  claims run inline rather than failing, so pipelines mixing shippable
  kernels with closure-based glue work unmodified.

A task whose payload footprint exceeds the budget *fails* (configuration
error), matching the local-store discipline.

Abort flags cross the process boundary through a shared byte array: when a
RUNNING task is flagged, the coordinator raises its worker's flag; a worker
observes the flag before starting a received payload and skips execution.
Work the worker has already started cannot be recalled — the coordinator
reaps its result on completion, the paper's destroy-signal protocol
(§III-B) verbatim. A skipped batch member that was *not* itself aborted
(innocent bystander of a raised flag), or one whose shared segment
disappeared under a racing rollback (``SegmentGone``), is re-run inline on
the coordinator — the authoritative mapping there outlives the unlink.

**Physical fault tolerance.** Logical failures (mis-speculation, task
exceptions) were always reclaimed; a *physical* failure — a worker process
SIGKILLed by the OOM killer, wedged in a C extension, or silently eating a
reply — used to strand the coordinator thread in ``conn.recv()`` forever
or kill it with an uncaught ``EOFError``. The :class:`WorkerSupervisor`
treats process failure as just another speculation to recover from
(cf. distributed speculative execution): every payload awaits its own
reply under a per-payload deadline, never scaled by batch size, while
also watching the worker's ``Process.sentinel``; a dead or wedged worker is killed, accounted
(``worker_crash`` events + ``procs_worker_crashes{cause}``), respawned
(``worker_respawn``), and the in-flight batch is re-dispatched *singly*
with bounded retries and exponential backoff (:class:`RetryPolicy`) so a
poisonous payload cannot take innocent batch-mates down twice. A task
that keeps killing workers is **quarantined** — it fails once through the
normal ``task_failed`` path (its dependence cone aborts, shared-memory
blocks it pinned are force-released with ``shm_release{reason="crash"}``)
instead of retrying forever. A worker slot whose respawn budget runs out
**degrades to coordinator-inline execution**: slower, but the run
completes. Deterministic chaos for all of this comes from
:mod:`repro.testing.faults` (``repro run --fault kill@3``).

**Closing.** A worker lost while the supervisor is *closing* — inside
:meth:`WorkerSupervisor.stop`, or once the interpreter has begun to exit
— is a clean stop: no ``worker_crash``, no respawn, no fork. The
supervisor learns of interpreter exit from an ``atexit`` hook registered
in :meth:`WorkerSupervisor.start`; ``atexit`` runs hooks last-in,
first-out, so it runs before multiprocessing's own hook terminates the
daemonic workers, and a replacement forked at exit can never outlive
the program.

The supervisor is the runtime's one seat state machine, and it does not
care what a seat is: it drives seats through a **link**. The
:class:`PipeLink` here forks worker processes on pipes; the distributed
back-end's socket link (:class:`~repro.sre.executor_dist.RemotePool`)
connects each seat to a remote worker pool. Both feed the same sequence
check, the same respawn/degrade ladder and the same ``worker_*`` events.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.connection
import os
import pickle
import time
import traceback
from collections import deque
from typing import Any

import threading

from repro.errors import (
    PlatformError,
    SchedulingError,
    SegmentGone,
    TaskStateError,
    TransportError,
    WorkerLost,
)
from repro.obs.events import COORDINATOR_WORKER, EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import parse_traceparent
from repro.sre import shm
from repro.sre.executor_base import LiveExecutor
from repro.sre.policies import DispatchPolicy
from repro.sre.registry import register_executor
from repro.sre.runtime import Runtime
from repro.sre.task import PAYLOAD_PROTOCOL, Task
from repro.testing.faults import FaultInjector, FaultPlan

__all__ = ["ProcessExecutor", "WorkerSupervisor", "PipeLink", "RetryPolicy",
           "PAYLOAD_BUDGET", "BATCH_MAX", "BATCH_BYTES",
           "DEFAULT_DISPATCH_TIMEOUT_S", "HARVEST_TIMEOUT_S",
           "MAX_TASK_RETRIES", "RETRY_BACKOFF_S", "MAX_WORKER_RESPAWNS"]

# The recovery policy, declared once. The coordinator, a worker pool's
# sessions and the serve daemon's warm lanes all read these module
# constants where they act on them (never as bound default arguments),
# so one value holds for every seat. Only the reply deadline is a per-run
# setting: a hang deadline depends on the host.

#: Per-task payload-footprint cap (bytes): wire bytes plus bytes of
#: every shared-memory block the payload references. Far roomier than the
#: Cell's 32 KB local-store slots — pipes and mmaps don't mind — but the
#: discipline is the same: a task that drags megabytes of captured state to
#: a worker is a pipeline bug, and it should fail loudly at dispatch.
PAYLOAD_BUDGET = 8 * 1024 * 1024

#: A seat's pipe window: the most tasks one coordinator thread claims and
#: ships per dispatch cycle. The worker idles between windows while its
#: coordinator completes the last reply and claims the next window; on a
#: 2-core host an 8-deep window paid that gap often enough to cost batch
#: pdf over dist 5-10 % of its throughput, a 16-deep one does not.
BATCH_MAX = 16

#: Only payloads at or below this wire size share a pipe message; a bigger
#: one ships alone so a long transfer never delays unrelated small kernels.
#: Twice the Huffman pipeline's ``REGION_BYTES``, so a 128 KiB region
#: pickled with its tree still rides in a batch.
BATCH_BYTES = 256 * 1024

#: Per-payload reply deadline (seconds). Replies stream back one per
#: payload, so each reply gets this long — the deadline is **never**
#: scaled by batch size, and a wedged worker is detected within one
#: deadline however deep its pipe. Generous against slow kernels and
#: loaded machines, tight enough that a wedged worker cannot stall a run
#: forever. The one per-run setting (``RunConfig.dispatch_timeout_s``).
DEFAULT_DISPATCH_TIMEOUT_S = 60.0

#: How long the stop path waits for each worker's final metrics/events
#: harvest before declaring it lost (``worker_harvest_lost``).
HARVEST_TIMEOUT_S = 2.0

#: Worker deaths one task may cause or witness before it is quarantined
#: (fails through the ``task_failed`` path).
MAX_TASK_RETRIES = 2

#: Base of the exponential re-dispatch backoff (seconds).
RETRY_BACKOFF_S = 0.05

#: Replacement workers (a reconnect, on a dist seat) one seat may consume
#: before it degrades to coordinator-inline execution.
MAX_WORKER_RESPAWNS = 3

#: How long an idle worker waits for its next batch before it checks that
#: its coordinator is still alive. Paid once per idle wait, not per block.
_ORPHAN_POLL_S = 1.0

#: Worker wire protocol: reply status tags and the stop sentinel. One
#: request is a pickled frame count followed by that many payload frames;
#: the worker replies **once per payload** with a ``(seq, status, payload)``
#: triple, where ``seq`` counts payloads *received* (not replied) across
#: the worker's whole incarnation — so a swallowed payload (injected drop)
#: desynchronises the stream and the supervisor detects it as a protocol
#: violation or a hang instead of silently misattributing later replies.
_OK = "ok"
_ERR = "error"
_SKIPPED = "abort-skipped"
_GONE = "segment-gone"
_METRICS = "metrics"
_STOP = b"\x00__sre_stop__"
#: Mid-lifetime harvest request: the worker ships its metrics/events
#: interval home like on ``_STOP``, then resets its local registry and
#: event log and keeps serving. The per-job accounting seam for warm
#: lanes (``WorkerSupervisor.harvest``).
_FLUSH = b"\x00__sre_flush__"


def _process_main(conn, abort_flags, wid: int, fault_plan=None,
                  incarnation: int = 0, coordinator: int | None = None
                  ) -> None:
    """Worker-process loop: receive payload batches, observe abort flags,
    reply once per payload as each body finishes (streaming replies).

    Module-level so it imports cleanly under any multiprocessing start
    method. The worker owns no runtime state — it is a pure payload engine.
    Shared-memory segments referenced by payloads are attached lazily (the
    first ref into a segment pays the map; every later ref is a pointer),
    and detached when the stop sentinel arrives.

    Each worker keeps its own :class:`~repro.obs.metrics.MetricsRegistry`
    (payload counts, errors, abort skips, body wall time) and its own
    :class:`~repro.obs.events.EventLog` (one ``worker_exec`` event per
    payload); on the stop sentinel it sends both back up the pipe as a
    final ``(_METRICS, {"metrics": ..., "events": ...})`` reply — the
    coordinator folds the snapshot into the run's registry and reconciles
    the events into the run's log with fresh coordinator seqs
    (cross-process aggregation over the existing wire, no extra channel).

    A worker outlives no coordinator. Forked siblings inherit each
    other's pipe ends, so a coordinator killed by a signal that skips its
    exit hooks (SIGTERM) does not reliably give the worker EOF; the worker
    therefore waits for every pipe message (a batch header or one of its
    frames) in ``_ORPHAN_POLL_S`` slices and exits once its parent pid is
    no longer ``coordinator``. The spawner passes its own pid: a parent
    read after the fork would already be init's if the coordinator died
    in between. Left ``None``, it is the parent the worker finds at
    start.

    ``fault_plan`` / ``incarnation`` arm deterministic chaos (see
    :mod:`repro.testing.faults`): the injector fires *before* a batch's
    payloads run, so an injected kill/hang/drop always leaves the batch
    unacknowledged — exactly the wreckage the supervisor must clean up.

    The batch header is ``(frame_count, traceparent)`` — the coordinator
    forwards the active span context of the job it is running, and the
    worker stamps that trace id onto every event it emits until the next
    batch says otherwise (:meth:`EventLog.set_trace_context`), so merged
    ``worker_exec`` events join the job's distributed trace. ``_FLUSH``
    triggers a mid-lifetime harvest: the worker ships its interval
    snapshot exactly like on ``_STOP`` but then resets its registry/log
    and keeps serving — how a warm lane's workers account per job instead
    of per daemon lifetime.
    """
    injector = FaultInjector(fault_plan, wid, incarnation)
    w = str(wid)

    def _fresh_state():
        """Registry + event log for one harvest interval (start or flush
        to the next flush or stop); the payload counters and body
        histogram fold the log's ``worker_exec`` events."""
        metrics = MetricsRegistry()
        events = EventLog(run_id=f"w{wid}")
        by_status = {status: metrics.counter(
            name, help_, labelnames=("worker",)).labels(worker=w)
            for status, name, help_ in (
                (_OK, "procs_worker_tasks",
                 "payloads executed in worker processes"),
                (_ERR, "procs_worker_errors",
                 "payloads that raised in worker processes"),
                (_SKIPPED, "procs_worker_abort_skips",
                 "payloads skipped because the destroy signal landed first"),
                (_GONE, "procs_worker_segment_gone",
                 "payloads bounced because a shared segment was already "
                 "reclaimed"))}
        body_us = metrics.histogram(
            "procs_worker_body_us", "payload body wall time in worker (µs)",
            labelnames=("worker",)).labels(worker=w)

        def executed(event: dict[str, Any]) -> None:
            by_status[event["status"]].inc()
            if "dur_us" in event:
                body_us.observe(event["dur_us"])

        events.fold("worker_exec", executed)
        return metrics, events

    if coordinator is None:
        coordinator = os.getppid()

    def next_message() -> bytes | None:
        """The next pipe message, or None once nobody is left to reply
        to: the pipe reached EOF, or this worker was orphaned while a
        forked sibling still holds the pipe open."""
        try:
            while not conn.poll(_ORPHAN_POLL_S):
                if os.getppid() != coordinator:
                    shm.detach_all()
                    return None
            return conn.recv_bytes()  # bounded: poll saw the message start
        except (EOFError, OSError):
            return None

    metrics, events = _fresh_state()
    seq = 0  # payloads *received* this incarnation; replies are tagged with it
    while True:
        head = next_message()
        if head is None:
            return
        if head in (_STOP, _FLUSH):
            try:
                conn.send((_METRICS, {"metrics": metrics.snapshot(),
                                      "events": events.events()}))
            except (BrokenPipeError, OSError):  # pragma: no cover - defensive
                if head == _STOP:
                    shm.detach_all()
                return
            if head == _STOP:
                shm.detach_all()
                return
            # Flush: clean slate for the next interval. The reply-seq
            # counter is NOT reset — it tracks the pipe stream, which
            # outlives harvest intervals.
            trace_ctx = events.trace_context
            metrics, events = _fresh_state()
            events.set_trace_context(trace_ctx)
            continue
        n, traceparent = pickle.loads(head)
        blobs = []
        for _ in range(n):
            blob = next_message()
            if blob is None:
                return
            blobs.append(blob)
        events.set_trace_context(parse_traceparent(traceparent))
        base = seq
        seq += len(blobs)
        if injector.on_batch():
            # Injected drop: swallow the batch without replying, but keep
            # counting its payloads in ``seq`` — the next reply arrives
            # out of sequence (protocol violation) or never (hang), and
            # the supervisor recovers either way instead of misattributing
            # later replies to the swallowed payloads.
            continue
        for i, blob in enumerate(blobs):
            if abort_flags[wid]:
                # Destroy signal observed before launch: skip the body.
                # The coordinator re-runs any batch member that was not
                # actually aborted, so over-skipping is always safe.
                status, payload, dur_us = _SKIPPED, None, None
            else:
                t0 = time.perf_counter()
                try:
                    outputs = Task.run_payload(blob)
                except SegmentGone as exc:
                    status, payload, dur_us = _GONE, str(exc), None
                except BaseException:
                    status, payload, dur_us = _ERR, traceback.format_exc(), None
                else:
                    status, payload = _OK, outputs
                    dur_us = (time.perf_counter() - t0) * 1e6
            events.emit("worker_exec", status=status, dur_us=dur_us,
                        wire_bytes=len(blob))
            # Stream this payload's reply immediately — never hold a fast
            # result hostage to a slow batch-mate still waiting its turn.
            try:
                conn.send((base + i + 1, status, payload))
            except (BrokenPipeError, InterruptedError, OSError):
                return  # coordinator went away; nothing left to tell it
            except Exception as exc:
                # The output refused to pickle (Connection.send pickles
                # fully before writing, so the pipe is still clean):
                # degrade just this reply to an error.
                try:
                    conn.send((base + i + 1, _ERR, (
                        "task outputs could not cross the process "
                        f"boundary: {exc!r}")))
                except (BrokenPipeError, OSError):  # pragma: no cover
                    return


class _WorkerCrash(RuntimeError):
    """A worker process reported a payload failure (carries its traceback)."""


# ---------------------------------------------------------------------------
# retry / backoff / quarantine policy
# ---------------------------------------------------------------------------

class RetryPolicy:
    """Bounded-retry policy for payloads whose worker physically died.

    Pure bookkeeping, deliberately free of I/O so its invariants are
    property-testable: a key is offered at most ``max_retries`` retries
    (``record_failure`` answers ``"retry"``), after which it is
    **quarantined** — every later ``record_failure`` answers
    ``"quarantine"``, permanently; and :meth:`backoff` is monotone
    non-decreasing in the attempt number, capped at ``backoff_cap_s``.

    Thread-safe: coordinator threads for different workers may record
    failures for the same task name (a batch re-dispatched after an
    abort-and-respeculate can land anywhere).
    """

    def __init__(self, *, max_retries: int | None = None,
                 backoff_s: float | None = None,
                 backoff_cap_s: float = 2.0) -> None:
        if max_retries is None:
            max_retries = MAX_TASK_RETRIES
        if backoff_s is None:
            backoff_s = RETRY_BACKOFF_S
        if max_retries < 0:
            raise SchedulingError("max_retries must be >= 0")
        if backoff_s < 0 or backoff_cap_s < 0:
            raise SchedulingError("backoff durations must be >= 0")
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self._lock = threading.Lock()
        self._attempts: dict[str, int] = {}
        self._quarantined: set[str] = set()

    def attempts(self, key: str) -> int:
        """Failures recorded against ``key`` so far."""
        with self._lock:
            return self._attempts.get(key, 0)

    def quarantined(self, key: str) -> bool:
        with self._lock:
            return key in self._quarantined

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based).

        Exponential: ``backoff_s × 2^(attempt-1)``, capped.
        """
        if attempt < 1 or self.backoff_s == 0:
            return 0.0
        return min(self.backoff_cap_s, self.backoff_s * (2 ** (attempt - 1)))

    def record_failure(self, key: str) -> str:
        """Account one worker-death against ``key``.

        Returns ``"retry"`` while the attempt budget lasts, else
        ``"quarantine"`` (sticky: once quarantined, always quarantined).
        """
        with self._lock:
            if key in self._quarantined:
                return "quarantine"
            n = self._attempts.get(key, 0) + 1
            self._attempts[key] = n
            if n > self.max_retries:
                self._quarantined.add(key)
                return "quarantine"
            return "retry"


# ---------------------------------------------------------------------------
# the worker supervisor: one seat state machine over a pluggable link
# ---------------------------------------------------------------------------

class _Slot:
    """One worker seat: its link connection and spawn history.

    ``conn`` is the link's channel to the seat's current incarnation (a
    pipe end or a socket; None while closed) and ``proc`` the local
    worker process when the link forks one. ``sent`` / ``recvd`` track
    the per-payload reply stream for the current incarnation: payload
    frames shipped vs replies received back. A reply whose sequence
    number is not ``recvd + 1`` (or exceeds ``sent``) is a protocol
    violation — the worker swallowed or duplicated a payload — and the
    seat is recovered like a crash.
    """

    __slots__ = ("wid", "conn", "proc", "incarnation", "respawns", "degraded",
                 "sent", "recvd")

    def __init__(self, wid: int) -> None:
        self.wid = wid
        self.conn: Any = None
        self.proc: multiprocessing.process.BaseProcess | None = None
        self.incarnation = -1  # the first open makes it 0
        self.respawns = 0
        self.degraded = False
        self.sent = 0
        self.recvd = 0


class PipeLink:
    """Seats as forked worker processes on duplex pipes (the procs link).

    Opening a seat forks one worker incarnation; :meth:`recv` watches the
    worker's ``Process.sentinel`` alongside the pipe, so a dead worker
    surfaces at once instead of after a deadline; closing terminates the
    worker. Harvests ride the seat pipes themselves (the ``_FLUSH`` /
    ``_STOP`` sentinels), and abort flags are a shared byte array the
    workers poll.
    """

    #: the supervisor's loss / respawn / degrade instruments on this link
    METRICS = {
        "lost": ("procs_worker_crashes",
                 "worker processes that died or stopped replying mid-run"),
        "respawned": ("procs_worker_respawns",
                      "replacement worker processes spawned"),
        "degraded": ("procs_workers_degraded",
                     "worker seats that exhausted their respawn budget and "
                     "fell back to coordinator-inline execution"),
    }
    #: extra fields stamped on the supervisor's ``worker_*`` events
    event_fields: dict[str, Any] = {}
    #: degrade reason for every seat once the link itself is gone; a pipe
    #: link has no shared point of failure, so it never is.
    lost: str | None = None

    def __init__(self, ctx) -> None:
        self._ctx = ctx

    def bind(self, sup: "WorkerSupervisor") -> None:
        self.sup = sup
        self.abort_flags = self._ctx.Array("b", sup.n_workers, lock=False)

    def bind_runtime(self, runtime: Runtime) -> None:
        lost = runtime.metrics.counter(
            "procs_worker_harvest_lost",
            "workers whose final metrics/events snapshot could not be "
            "harvested at shutdown",
            labelnames=("reason",))
        runtime.events.fold(
            "worker_harvest_lost",
            lambda event: lost.labels(reason=event["reason"]).inc(),
            key="procs_worker_harvest_lost")

    def start(self) -> None:
        # The shared-memory resource tracker must exist *before* workers
        # fork: a worker that attaches a segment registers it with its
        # inherited tracker. If the tracker only starts after the fork,
        # each worker spawns a private one, and a private tracker unlinks
        # every registered segment when its worker exits — yanking live
        # segments out from under the coordinator.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()

    def open(self, seat: _Slot) -> str | None:
        parent, child = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_process_main,
            args=(child, self.abort_flags, seat.wid, self.sup.fault_plan,
                  seat.incarnation, os.getpid()),
            name=f"sre-proc-{seat.wid}.{seat.incarnation}",
            daemon=True,
        )
        proc.start()
        child.close()
        seat.proc, seat.conn = proc, parent
        return None

    def send(self, seat: _Slot, traceparent: str | None,
             frames: list[bytes], refs: tuple = ()) -> None:
        # ``refs`` name shared memory a remote pool must hold first; the
        # forked workers attach the coordinator's segments themselves.
        try:
            seat.conn.send_bytes(pickle.dumps((len(frames), traceparent),
                                              protocol=PAYLOAD_PROTOCOL))
            for frame in frames:
                seat.conn.send_bytes(frame)
        except (BrokenPipeError, OSError):
            raise WorkerLost(seat.wid, "crash",
                             exitcode=seat.proc.exitcode) from None

    def recv(self, seat: _Slot, timeout_s: float) -> tuple:
        conn, proc, wid = seat.conn, seat.proc, seat.wid
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerLost(wid, "hang")
            ready = multiprocessing.connection.wait(
                [conn, proc.sentinel], timeout=remaining)
            if conn in ready:
                try:
                    reply = conn.recv()  # bounded: wait saw the reply start
                except (EOFError, OSError):
                    raise WorkerLost(wid, "crash",
                                     exitcode=proc.exitcode) from None
                if _is_snapshot(reply):
                    # A flush-harvest snapshot that lost the race with its
                    # deadline (see harvest()): fold it in late instead of
                    # poisoning the reply stream — it carries no task
                    # payload and does not advance the reply seq.
                    self._merge(wid, reply[1])
                    continue
                if not (isinstance(reply, tuple) and len(reply) == 3):
                    raise WorkerLost(wid, "protocol")
                return reply
            if proc.sentinel in ready:
                # Dead — but a reply may have raced the death into the
                # pipe; drain it before declaring the dispatch lost.
                if conn.poll(0):
                    continue
                raise WorkerLost(wid, "crash", exitcode=proc.exitcode)

    def close(self, seat: _Slot, grace_s: float = 0.0) -> int | None:
        """Close the pipe and make sure the worker is dead, giving it
        ``grace_s`` to exit on its own first; returns its exit code."""
        proc = seat.proc
        if proc is not None:
            if grace_s:
                proc.join(timeout=grace_s)
            if proc.is_alive():  # hang/protocol: put it out of its misery
                proc.terminate()
                proc.join(timeout=2.0)
                if proc.is_alive():  # pragma: no cover - terminate ignored
                    proc.kill()
                    proc.join(timeout=2.0)
        if seat.conn is not None:
            try:
                seat.conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
            seat.conn = None
        return proc.exitcode if proc is not None else None

    def harvest(self, seats: list[_Slot], final: bool) -> None:
        """Pull each live worker's metrics/events interval home.

        Every live worker gets the ``_STOP`` (``final``) or ``_FLUSH``
        sentinel and ``HARVEST_TIMEOUT_S`` to reply with its snapshot,
        which is folded into the supervisor's runtime. A worker that
        cannot deliver — a dead pipe, or the poll expiring on a loaded
        machine — is accounted with ``worker_harvest_lost{reason}``, never
        dropped silently. At shutdown a seat with no pipe is accounted
        too: ``"degraded"`` when it has none *by design* (not a harvest
        death, so the crash detectors do not trip twice for one failure).
        A flush that times out rides along with the next harvest instead
        (:meth:`recv` folds a late snapshot in).
        """
        sentinel, late = (_STOP, "timeout") if final else (_FLUSH,
                                                           "flush-timeout")
        asked: list[_Slot] = []
        for seat in seats:
            if seat.conn is None:
                if final:
                    self._harvest_lost(
                        seat.wid, "degraded" if seat.degraded else "dead")
                continue
            try:
                seat.conn.send_bytes(sentinel)
                asked.append(seat)
            except (BrokenPipeError, OSError):
                self._harvest_lost(seat.wid, "dead")
        for seat in asked:
            try:
                if not seat.conn.poll(HARVEST_TIMEOUT_S):
                    self._harvest_lost(seat.wid, late)
                    continue
                reply = seat.conn.recv()  # bounded: poll saw the reply start
            except (EOFError, OSError):
                self._harvest_lost(seat.wid, "dead")
                continue
            if _is_snapshot(reply):
                self._merge(seat.wid, reply[1])
            else:  # pragma: no cover - protocol noise
                self._harvest_lost(seat.wid, "protocol")

    def _merge(self, wid: int, snapshot: dict) -> None:
        self.sup.runtime.metrics.merge_snapshot(snapshot["metrics"])
        self.sup.runtime.events.merge_worker(wid, snapshot["events"])

    def _harvest_lost(self, wid: int, reason: str) -> None:
        self.sup.runtime.events.emit("worker_harvest_lost", worker=wid,
                                     reason=reason,
                                     timeout_s=HARVEST_TIMEOUT_S)


def _is_snapshot(reply: Any) -> bool:
    """True for a worker's ``(_METRICS, snapshot)`` harvest reply."""
    return (isinstance(reply, tuple) and len(reply) == 2
            and reply[0] == _METRICS and bool(reply[1]))


class WorkerSupervisor:
    """The one seat state machine: open, watch, lose, respawn, degrade.

    Every worker interaction the executor does goes through here, so
    physical failure has exactly one detection point and one recovery
    ladder, whatever carries the seats. A **link** carries them: a
    :class:`PipeLink` forks local worker processes on pipes, and the
    distributed back-end's :class:`~repro.sre.executor_dist.RemotePool`
    opens one socket per seat to a remote ``repro worker-pool``. A link
    opens a seat for an incarnation (or names why it was refused), sends
    one header plus payload frames, receives one raw ``(seq, status,
    payload)`` reply under a deadline (or raises a typed
    :class:`~repro.errors.WorkerLost`), closes a seat, harvests worker
    metrics/events, and names its metrics and extra event fields.

    * :meth:`send` ships payload frames down a seat without waiting, and
      :meth:`recv_reply` awaits exactly **one** per-payload reply under a
      fresh per-payload deadline — a dead worker raises ``WorkerLost``
      with cause ``"crash"``, a silent one ``"hang"`` when the deadline
      passes, and an out-of-sequence reply ``"protocol"`` (the sequence
      check lives here, once, for every link). The executor completes
      each task the moment its reply lands instead of holding a batch
      hostage.
    * :meth:`note_lost` accounts a failure (``worker_crash`` event and
      the link's loss counter) and closes the seat — a pipe link kills
      the process, a socket link drops the connection, so nothing the
      old incarnation still had in flight can reach the reply stream.
    * :meth:`respawn` reopens the seat with a bumped incarnation —
      bounded by ``MAX_WORKER_RESPAWNS``; past the budget, when the link is
      lost, or when the link refuses the seat, the seat **degrades**
      (``worker_degraded`` event, the link's degraded gauge) and
      :meth:`alive` turns False, telling the executor to run that seat's
      work inline on the coordinator instead.
    * :meth:`harvest` / :meth:`stop` pull worker metrics and events home
      mid-lifetime or at shutdown, through the link.
    """

    def __init__(
        self,
        link: Any,
        workers: int,
        *,
        runtime: Runtime,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.link = link
        self.n_workers = workers
        self.fault_plan = fault_plan
        self._slots = [_Slot(wid) for wid in range(workers)]
        #: True once stop() or interpreter exit began; guarded by
        #: _open_lock so no seat opens (forks) after it turns True.
        self.closing = False
        self._open_lock = threading.Lock()
        link.bind(self)
        self.abort_flags = link.abort_flags
        self._bind_runtime(runtime)

    def _bind_runtime(self, runtime: Runtime) -> None:
        """Fold the ``worker_crash`` / ``_respawn`` / ``_degraded`` events
        into the link's ``METRICS``, keyed so that lanes sharing and
        re-binding one home log count each event once (one link kind per
        log)."""
        self.runtime = runtime
        m, names = runtime.metrics, self.link.METRICS
        lost = m.counter(*names["lost"], labelnames=("cause",))
        respawned = m.counter(*names["respawned"])
        degraded = m.gauge(*names["degraded"])
        for kind, fn in {
            "worker_crash": lambda e: lost.labels(cause=e["reason"]).inc(),
            "worker_respawn": lambda _e: respawned.inc(),
            "worker_degraded": lambda _e: degraded.inc(),
        }.items():
            runtime.events.fold(kind, fn, key=names["lost"][0])
        self.link.bind_runtime(runtime)

    def rebind(self, runtime: Runtime) -> None:
        """Re-point a warm supervisor at a fresh per-job runtime.

        A long-lived supervisor (see ``ProcessExecutor(supervisor=...)``)
        outlives any single run: each new job brings its own
        :class:`~repro.sre.runtime.Runtime` with a fresh metrics registry
        and event log, so crash/respawn accounting must land in the job
        that witnessed it. Also clears any abort flags a previous job
        left raised so the new job's first batch is not skipped.
        """
        self._bind_runtime(runtime)
        for wid in range(self.n_workers):
            self.abort_flags[wid] = 0

    # -- lifecycle -----------------------------------------------------
    def _open(self, seat: _Slot) -> str | None:
        seat.incarnation += 1
        seat.sent = 0   # the reply stream restarts with each incarnation
        seat.recvd = 0
        return self.link.open(seat)

    def start(self) -> None:
        self.link.start()
        for seat in self._slots:
            refused = self._open(seat)
            if refused:
                self._degrade(seat, refused)
        # Registered after multiprocessing's exit hook, so it runs first.
        atexit.register(self.close)

    def close(self) -> None:
        """Enter the closing state: from now on a lost worker is a clean
        stop, and no seat is ever reopened."""
        with self._open_lock:
            self.closing = True

    def alive(self, wid: int) -> bool:
        """True while seat ``wid`` has (or may get) a worker."""
        return not self._slots[wid].degraded

    def pids(self) -> list[int | None]:
        """Local worker PIDs by seat (None for degraded or remote seats)."""
        return [s.proc.pid if s.proc is not None and not s.degraded else None
                for s in self._slots]

    def process(self, wid: int):
        return self._slots[wid].proc

    # -- dispatch ------------------------------------------------------
    def _live_seat(self, wid: int) -> _Slot:
        seat = self._slots[wid]
        if seat.degraded or seat.conn is None:
            raise WorkerLost(wid, "degraded")
        return seat

    def send(self, wid: int, frames: list[bytes],
             refs: tuple = ()) -> None:
        """Ship one message of payload frames to seat ``wid``.

        ``refs`` are the shared-memory refs the frames carry (found once,
        at serialization: :meth:`~repro.sre.task.Task.payload_refs`); a
        remote link pushes their blocks ahead of the frames.

        Returns as soon as the frames are written — replies stream back
        one per payload through :meth:`recv_reply`. Raises
        :class:`~repro.errors.WorkerLost` on a degraded seat
        (``"degraded"``; a lost link degrades the seat first) or a broken
        channel (``"crash"``).
        """
        if self.link.lost:
            self._degrade(self._slots[wid], self.link.lost)
        seat = self._live_seat(wid)
        # The batch header carries the active span context of whatever
        # job this supervisor is currently bound to, so worker-side
        # events join its distributed trace (None when untraced).
        ctx = self.runtime.events.trace_context
        self.link.send(seat, ctx.to_traceparent() if ctx is not None else None,
                       frames, refs)
        seat.sent += len(frames)

    def recv_reply(self, wid: int, timeout_s: float) -> tuple[str, Any]:
        """Await exactly one per-payload ``(status, payload)`` reply.

        The deadline is **per payload** — never scaled by batch size —
        so a wedged worker is detected within one ``timeout_s`` whatever
        the depth of its channel. Raises :class:`~repro.errors.WorkerLost`
        when the worker dies (``"crash"``), exceeds the deadline
        (``"hang"``) or replies out of sequence (``"protocol"`` —
        treated like a hang by recovery).
        """
        seat = self._live_seat(wid)
        seq, status, payload = self.link.recv(seat, timeout_s)
        if seq != seat.recvd + 1 or seq > seat.sent:
            # The worker swallowed or duplicated a payload (e.g. an
            # injected drop): the stream is desynchronised and no later
            # reply can be trusted.
            raise WorkerLost(wid, "protocol")
        seat.recvd = seq
        return status, payload

    # -- failure handling ----------------------------------------------
    def stop_seat(self, wid: int) -> None:
        """Close seat ``wid`` after a loss seen while :attr:`closing`: a
        clean stop, so nothing is counted or recorded as a crash."""
        self.link.close(self._slots[wid])

    def note_lost(self, wid: int, lost: WorkerLost,
                  inflight: list[str]) -> int:
        """Account a worker failure and close its seat.

        Returns the ``worker_crash`` event seq so the caller can scope the
        whole recovery cascade (respawn, retries, quarantines, releases)
        under it as the causal root.
        """
        seat = self._slots[wid]
        exitcode = self.link.close(seat)
        if lost.exitcode is not None:
            exitcode = lost.exitcode
        # NB: the loss cause travels as ``reason`` — ``cause=`` is the
        # event log's causal-edge parameter, and a follow-on crash must
        # inherit the ambient scope (the prior crash) there.
        return self.runtime.events.emit(
            "worker_crash", worker=wid, reason=lost.cause, exitcode=exitcode,
            incarnation=max(seat.incarnation, 0),
            inflight=len(inflight), tasks=inflight[:8] or None,
            **self.link.event_fields)

    def respawn(self, wid: int) -> bool:
        """Reopen seat ``wid`` with a bumped incarnation.

        Returns False — and degrades the seat to coordinator-inline
        execution — when the respawn budget is exhausted, the link is
        lost, or the link refuses or fails to open the seat; returns
        False and leaves the seat closed while :attr:`closing`. Emits
        ``worker_respawn`` / ``worker_degraded`` under whatever cause
        scope the caller holds (the crash event).
        """
        seat = self._slots[wid]
        if seat.degraded:
            return False
        if seat.respawns >= MAX_WORKER_RESPAWNS:
            self._degrade(seat, "respawn budget exhausted")
            return False
        if self.link.lost:
            self._degrade(seat, self.link.lost)
            return False
        with self._open_lock:
            if self.closing:
                return False
            seat.respawns += 1
            try:
                refused = self._open(seat)
            except (OSError, TransportError) as exc:
                refused = f"respawn failed: {exc}"
        if refused:
            self._degrade(seat, refused)
            return False
        self.runtime.events.emit("worker_respawn", worker=wid,
                                 incarnation=seat.incarnation,
                                 respawns=seat.respawns,
                                 **self.link.event_fields)
        return True

    def _degrade(self, seat: _Slot, reason: str) -> None:
        if seat.degraded:
            return
        seat.degraded = True
        self.link.close(seat)
        self.runtime.events.emit("worker_degraded", worker=seat.wid,
                                 reason=reason, respawns=seat.respawns,
                                 **self.link.event_fields)

    # -- harvests ------------------------------------------------------
    def harvest(self) -> None:
        """Mid-lifetime harvest: pull each live worker's metrics/events
        interval home *now*, without stopping anything.

        The per-job accounting seam for warm lanes: a borrowed
        supervisor's :meth:`ProcessExecutor._stop_backend` calls this
        once the coordinator threads have joined (channels quiet), so
        worker-side counters and ``worker_exec`` events land in the
        runtime of the job that produced them instead of waiting for
        daemon shutdown — and served jobs report their workers' trace
        just like one-shot runs do.
        """
        self.link.harvest(self._slots, final=False)

    def stop(self) -> None:
        """Stop workers, harvesting each one's metrics and events first.

        By the time this runs the coordinator threads have joined, so the
        channels are quiet: the final harvest folds the workers' metrics
        into ``runtime.metrics`` and reconciles their events into
        ``runtime.events`` with fresh coordinator seqs (cross-process
        aggregation), then every seat is closed.
        """
        atexit.unregister(self.close)
        self.close()
        self.link.harvest(self._slots, final=True)
        for seat in self._slots:
            self.link.close(seat, grace_s=5.0)


class ProcessExecutor(LiveExecutor):
    """Runs a :class:`~repro.sre.runtime.Runtime` on a supervised process
    pool.

    Args:
        runtime: the runtime to drive.
        policy: dispatch policy (same vocabulary as every executor).
        workers: worker processes (and paired coordinator threads).
        dispatch_timeout_s: per-payload reply deadline. Replies stream
            back one per payload, so each gets this long — the deadline
            is never scaled by batch size. The recovery policy around it
            (pipe window, payload cap, retries, backoff, respawns,
            harvest grace) is this module's constants.
        fault_plan: deterministic chaos plan (or its spec string) threaded
            into the workers — see :mod:`repro.testing.faults`.
        store: the run's :class:`~repro.sre.shm.BlockStore`, when the shm
            transport is active — quarantined tasks force-release the
            blocks they pinned (``shm_release{reason="crash"}``) so a
            crashed payload cannot leak segments.
        supervisor: an externally-owned, already-*started*
            :class:`WorkerSupervisor` to run on instead of spawning a
            fresh pool. The executor rebinds it to this runtime on start
            (:meth:`WorkerSupervisor.rebind`) and leaves it **running**
            on stop — the caller owns its lifecycle (``start``/``stop``),
            which is how ``repro serve`` keeps worker processes warm
            across jobs. ``workers`` must match the supervisor's seat
            count, and ``fault_plan`` is the supervisor's own (per-lane)
            setting, not a per-job one.
    """

    RUNS_LOCAL = True

    def __init__(
        self,
        runtime: Runtime,
        *,
        policy: DispatchPolicy | str = "conservative",
        workers: int = 4,
        dispatch_timeout_s: float = DEFAULT_DISPATCH_TIMEOUT_S,
        fault_plan: FaultPlan | str | None = None,
        store: "shm.BlockStore | None" = None,
        supervisor: WorkerSupervisor | None = None,
    ) -> None:
        super().__init__(runtime, policy=policy, workers=workers)
        if dispatch_timeout_s <= 0:
            raise SchedulingError("dispatch_timeout_s must be positive")
        self.dispatch_timeout_s = dispatch_timeout_s
        try:  # fork is cheap and inherits imports
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            self._ctx = multiprocessing.get_context()
        if supervisor is not None:
            if supervisor.n_workers != workers:
                raise SchedulingError(
                    f"external supervisor has {supervisor.n_workers} seats, "
                    f"executor wants workers={workers}")
            self.supervisor = supervisor
            self._owns_supervisor = False
        else:
            self.supervisor = WorkerSupervisor(
                self._make_link(), workers, runtime=runtime,
                fault_plan=FaultPlan.parse(fault_plan))
            self._owns_supervisor = True
        self.retry_policy = RetryPolicy()
        self._store = store
        #: every task in a seat's current window, by seat — the abort-flag
        #: relay targets that worker's address space. A window is shipped
        #: in the cycle that claims it, so claimed means in the pipe.
        self._current: list[list[Task]] = [[] for _ in range(workers)]
        #: seats currently inside a dispatch cycle (lock-protected); the
        #: batching guard computes idleness from this, not from the
        #: in-flight *task* count.
        self._busy: list[bool] = [False] * workers
        m = runtime.metrics
        self._m_shipped = m.counter(
            "procs_tasks_shipped", "task payloads shipped to worker processes")
        self._m_inline = m.counter(
            "procs_tasks_inline",
            "tasks run on the coordinator instead of a worker (local tasks, "
            "unpicklable payloads, and work of a degraded seat)")
        self._m_payload_bytes = m.counter(
            "procs_payload_bytes", "serialized payload bytes sent to workers")
        self._m_bytes_avoided = m.counter(
            "procs_payload_bytes_avoided",
            "bytes that stayed in shared memory instead of crossing the pipe")
        self._m_batches = m.counter(
            "procs_batches", "pipe messages carrying more than one payload")
        self._m_reruns = m.counter(
            "procs_inline_reruns",
            "worker-skipped payloads re-run inline on the coordinator")
        retries = m.counter(
            "procs_task_retries",
            "payload re-dispatches after a worker died mid-batch")
        quarantined = m.counter(
            "procs_tasks_quarantined",
            "tasks failed permanently after repeatedly losing their worker")
        runtime.events.fold("task_retry", lambda _event: retries.inc())
        runtime.events.fold("task_quarantine",
                            lambda _event: quarantined.inc())
        #: Budget-pressure pair for the anomaly detectors: configured cap
        #: vs the largest footprint actually shipped.
        m.gauge("procs_payload_budget_bytes",
                "configured per-task payload-footprint cap").set(PAYLOAD_BUDGET)
        self._m_max_footprint = m.gauge(
            "procs_payload_max_footprint_bytes",
            "largest payload footprint (wire + referenced shm bytes) seen")
        self._max_footprint = 0
        self._footprint_lock = threading.Lock()
        runtime.add_abort_flag_listener(self._on_abort_flagged)

    # ------------------------------------------------------------------
    # substrate lifecycle
    # ------------------------------------------------------------------
    def _make_link(self) -> Any:
        """The link an owned supervisor drives its seats over."""
        return PipeLink(self._ctx)

    def _start_backend(self) -> None:
        if self._owns_supervisor:
            self.supervisor.start()
        else:
            # Warm pool: the processes are already up — just re-point
            # their accounting at this job's runtime and clear stale
            # abort flags from the previous job.
            self.supervisor.rebind(self.runtime)

    def _stop_backend(self) -> None:
        if self._owns_supervisor:
            self.supervisor.stop()
        else:
            # A borrowed supervisor keeps running — its owner (e.g. the
            # serve daemon's warm lane) stops it at daemon shutdown —
            # but this job's worker-side metrics/events come home *now*:
            # the coordinator threads have joined, the pipes are quiet,
            # and the flush harvest folds each worker's interval into
            # this job's runtime before the lane is rebound home.
            self.supervisor.harvest()

    # ------------------------------------------------------------------
    # abort-flag relay (coordinator -> worker address space)
    # ------------------------------------------------------------------
    @property
    def _abort_flags(self):
        return self.supervisor.abort_flags

    def _on_abort_flagged(self, task: Task) -> None:
        # Runs under the executor lock (all runtime mutation does), so
        # _current is consistent; the flag write itself is a raw byte store
        # the worker polls without any lock.
        for wid, current in enumerate(self._current):
            if task in current:
                self._abort_flags[wid] = 1

    def _note_dispatch(self, wid: int, task: Task) -> None:
        if wid == COORDINATOR_WORKER:
            return  # no worker address space to relay a flag to
        current = self._current[wid]
        current.append(task)
        if not any(t.abort_requested for t in current):
            # Reset only when no in-flight batch member is flagged — a
            # destroy signal raised for an earlier member must survive
            # later members joining the batch.
            self._abort_flags[wid] = 0

    def _note_complete(self, wid: int, task: Task) -> None:
        if wid == COORDINATOR_WORKER:
            return
        current = self._current[wid]
        try:
            current.remove(task)
        except ValueError:  # pragma: no cover - defensive
            pass
        if not any(t.abort_requested for t in current):
            self._abort_flags[wid] = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _serialize_or_none(self, task: Task) -> bytes | None:
        try:
            return task.serialize_payload()
        except TaskStateError:
            return None  # closure-captured payload: coordinator runs it

    def _check_budget(self, task: Task, blob: bytes) -> None:
        footprint = len(blob) + task.referenced_bytes()
        with self._footprint_lock:
            if footprint > self._max_footprint:
                self._max_footprint = footprint
                self._m_max_footprint.set(footprint)
        if footprint > PAYLOAD_BUDGET:
            raise PlatformError(
                f"task {task.name!r}: payload footprint {footprint} B "
                f"({len(blob)} B wire + referenced shared blocks) exceeds "
                f"the process back-end budget {PAYLOAD_BUDGET} B "
                "(cf. the Cell local-store per-task cap)"
            )

    def _run_inline(self, task: Task) -> dict[str, Any]:
        self._m_inline.inc()
        return task.run()

    # The ship tallies, read back from their one write (no event records
    # them): payloads sent (a re-dispatch counts again), tasks run on the
    # coordinator, bytes sent, bytes left in shared memory, and pipe
    # messages that carried more than one payload.
    tasks_shipped = property(lambda self: int(self._m_shipped.value()))
    tasks_inline = property(lambda self: int(self._m_inline.value()))
    payload_bytes = property(lambda self: int(self._m_payload_bytes.value()))
    payload_bytes_avoided = property(
        lambda self: int(self._m_bytes_avoided.value()))
    batches = property(lambda self: int(self._m_batches.value()))

    def _idle_seats(self) -> int:
        """Seats not currently inside a dispatch cycle. Lock held.

        This is the batching guard's notion of "idle": a *seat* with no
        work, not ``n_workers - inflight`` — that subtraction compares
        in-flight *tasks* (a batch is many) against worker *seats*, so
        one in-flight batch of 4 on a 2-seat pool yields -2 "idle seats"
        and the guard over-batches forever after.
        """
        return sum(1 for busy in self._busy if not busy)

    def _take_extras(
        self, wid: int
    ) -> tuple[list[tuple[Task, bytes]], list[Task], list[tuple[Task, PlatformError]]]:
        """Claim extra ready tasks into this seat's pipe window.

        Called under the lock. At most ``BATCH_MAX - 1`` payloads join
        the head, and only while the ready queues hold more tasks than
        there are idle *seats* — batching amortises pipe traffic without
        ever serialising work an idle seat could overlap. Every shippable
        claim ships in this same cycle (a payload over ``BATCH_BYTES``
        in a message of its own), so nothing claimed ever waits outside
        a worker's pipe. Aborted and unpicklable extras are returned for
        inline resolution; budget violators are returned as failures.
        """
        shippable: list[tuple[Task, bytes]] = []
        inline: list[Task] = []
        failed: list[tuple[Task, PlatformError]] = []
        while len(shippable) < BATCH_MAX - 1:
            nat = self.runtime.natural_queue
            spec = self.runtime.speculative_queue
            if len(nat) + len(spec) <= self._idle_seats():
                break
            extra = self.policy.select(nat, spec)
            if extra is None:
                break
            self._begin_dispatch(wid, extra)
            blob = None
            if not extra.abort_requested:
                blob = self._serialize_or_none(extra)
            if blob is None:
                inline.append(extra)  # aborted or unpicklable
                continue
            try:
                self._check_budget(extra, blob)
            except PlatformError as exc:
                failed.append((extra, exc))
                continue
            shippable.append((extra, blob))
        return shippable, inline, failed

    def _rerun_or_reap(self, task: Task) -> tuple[dict[str, Any], BaseException | None]:
        """Resolve a ``_SKIPPED``/``_GONE`` reply for one batch member.

        An actually-aborted task is reaped (empty outputs + its abort
        flag); an innocent bystander is re-run inline — the coordinator's
        segment mappings outlive any unlink, so ``SegmentGone`` cannot
        recur here.
        """
        if task.abort_requested:
            return {}, None
        self._m_reruns.inc()
        try:
            return task.run(), None
        except Exception as exc:
            return {}, exc

    # ------------------------------------------------------------------
    # remote dispatch + crash recovery
    # ------------------------------------------------------------------
    def _account_shipped(self, pairs: list[tuple[Task, bytes]]) -> None:
        """Book wire accounting for one sent pipe message.

        Accounting happens at *send* time: a re-dispatch after a crash
        puts real bytes on the wire again and is counted again — the
        counters measure pipe traffic, not unique payloads.
        """
        wire = sum(len(b) for _t, b in pairs)
        avoided = sum(t.referenced_bytes() for t, _b in pairs)
        self._m_shipped.inc(len(pairs))
        self._m_payload_bytes.inc(wire)
        if avoided:
            self._m_bytes_avoided.inc(avoided)
        if len(pairs) > 1:
            self._m_batches.inc()

    def _ship_one(self, wid: int, task: Task, blob: bytes
                  ) -> tuple[str, Any]:
        """One single-payload round trip (the crash re-dispatch path)."""
        self.supervisor.send(wid, [blob], task.payload_refs())
        self._account_shipped([(task, blob)])
        return self.supervisor.recv_reply(wid, self.dispatch_timeout_s)

    def _quarantine(self, task: Task) -> tuple[str, Any]:
        """Give up on a payload that keeps killing workers.

        The task fails once through the normal ``task_failed`` path (the
        caller turns this reply into a failure), and any shared-memory
        blocks its payload pinned are force-released so a poisonous
        payload cannot leak segments — later releases of the same blocks
        by the version machinery are tolerated no-ops.
        """
        self.runtime.events.emit(
            "task_quarantine", task=task.name,
            version=task.tags.get("spec_version"),
            attempts=self.retry_policy.attempts(task.name))
        if self._store is not None:
            refs = task.payload_refs()
            if refs:
                self._store.release_crashed(refs)
        return (_ERR, (
            f"task {task.name!r} quarantined: its payload lost its worker "
            f"{self.retry_policy.attempts(task.name)} time(s) "
            f"(MAX_TASK_RETRIES={self.retry_policy.max_retries})"))

    def _handle_worker_lost(self, wid: int, lost: WorkerLost,
                            tasks: list[Task]) -> int:
        """Account a dead/hung worker and recover the seat.

        Emits the ``worker_crash`` root event, then — under its cause
        scope, so the flight recorder can walk the whole cascade —
        respawns the worker (or degrades the seat) and charges one
        failure to every in-flight payload, quarantining the ones whose
        retry budget ran out. Returns the crash event's seq.
        """
        crash_seq = self.supervisor.note_lost(
            wid, lost, inflight=[t.name for t in tasks])
        with self.runtime.events.cause(crash_seq):
            self.supervisor.respawn(wid)
            for task in tasks:
                self.retry_policy.record_failure(task.name)
        return crash_seq

    def _reply_inline(self, task: Task) -> tuple[str, Any]:
        """Run a payload on the coordinator and wrap it as a wire reply
        (degraded-seat execution)."""
        try:
            return (_OK, self._run_inline(task))
        except Exception:
            return (_ERR, traceback.format_exc())

    def _redispatch(self, wid: int, task: Task, blob: bytes
                    ) -> tuple[str, Any]:
        """Retry one payload after its worker died, until it lands,
        quarantines, or the seat degrades to inline execution."""
        while True:
            if task.abort_requested:
                return (_SKIPPED, None)
            if self.retry_policy.quarantined(task.name):
                return self._quarantine(task)
            if not self.supervisor.alive(wid):
                # Out of workers on this seat: the coordinator is the
                # execution substrate of last resort.
                return self._reply_inline(task)
            attempt = self.retry_policy.attempts(task.name)
            delay = self.retry_policy.backoff(attempt)
            if delay:
                time.sleep(delay)
            self.runtime.events.emit(
                "task_retry", task=task.name,
                version=task.tags.get("spec_version"),
                worker=wid, attempt=attempt, backoff_s=delay or None)
            try:
                return self._ship_one(wid, task, blob)
            except WorkerLost as lost:
                self._handle_worker_lost(wid, lost, [task])

    def _resolve_reply(self, wid: int, task: Task, status: str, payload: Any,
                       *, wall_us: float | None = None) -> None:
        """Turn one wire reply into a task completion — the per-payload
        analogue of the old whole-batch resolution, stamped with the
        task's *own* wall time (send → its reply), not the batch's."""
        task.drop_payload_cache()
        outputs: dict[str, Any] = {}
        failure: BaseException | None = None
        if status == _OK:
            outputs = payload
        elif status == _ERR:
            failure = _WorkerCrash(payload)
        else:  # _SKIPPED / _GONE
            outputs, failure = self._rerun_or_reap(task)
        self._finish_dispatch(wid, task, outputs, failure, wall_us=wall_us)

    def _recover_stream(self, wid: int, lost: WorkerLost,
                        fifo: deque[tuple[Task, bytes, float]]) -> None:
        """Recover every payload the lost worker still owed a reply for.

        Accounts the crash (the ``worker_crash`` causal root), respawns
        or degrades the seat, then re-dispatches the pending window
        **singly** so a poisonous payload cannot take innocent pipe-mates
        down a second time. Each pending task resolves to a normal
        completion — possibly a quarantine failure — whatever happened
        underneath.
        """
        pending = list(fifo)
        fifo.clear()
        if self.supervisor.closing:
            # Shutdown ended the worker: a clean stop. Nothing pending is
            # re-run, and no seat claims more work.
            self.supervisor.stop_seat(wid)
            with self._cond:
                self._stop = True
                self._cond.notify_all()
            return
        crash_seq = self._handle_worker_lost(
            wid, lost, [t for t, _b, _ts in pending])
        with self.runtime.events.cause(crash_seq):
            for task, blob, _t_sent in pending:
                t0 = self._clock()
                status, payload = self._redispatch(wid, task, blob)
                self._resolve_reply(wid, task, status, payload,
                                    wall_us=self._clock() - t0)

    # ------------------------------------------------------------------
    # the streaming dispatch cycle
    # ------------------------------------------------------------------
    def _acquire_work(self, wid: int) -> Task | None:
        """The base queue pop, marking the seat busy for the batching
        guard (:meth:`_idle_seats`)."""
        task = super()._acquire_work(wid)
        if task is not None:
            self._busy[wid] = True
        return task

    def _dispatch_cycle(self, wid: int, task: Task) -> None:
        """Drive one acquired task — and every extra claimed beside it —
        to completion."""
        try:
            self._run_primary(wid, task)
        finally:
            with self._cond:
                self._busy[wid] = False
                self._cond.notify_all()

    def _run_primary(self, wid: int, task: Task) -> None:
        """Resolve a task popped straight off the ready queues.

        Closure-captured payloads run inline on the coordinator (see the
        module docstring); budget violators fail; everything else enters
        the streaming dispatch path.
        """
        t0 = self._clock()
        blob = None
        if not task.abort_requested:
            blob = self._serialize_or_none(task)
        if blob is not None:
            try:
                self._check_budget(task, blob)
            except PlatformError as exc:
                self._finish_dispatch(wid, task, {}, exc,
                                      wall_us=self._clock() - t0)
                return
        if blob is None or not self.supervisor.alive(wid):
            self._run_here(wid, task)  # aborted, unpicklable or degraded
            return
        self._run_stream(wid, (task, blob))

    def _run_stream(self, wid: int, head: tuple[Task, bytes]) -> None:
        """The streaming dispatch cycle for seat ``wid``.

        Claims at most ``BATCH_MAX - 1`` extras beside the head (only
        when the head is small enough to share a message), ships the
        whole window before the first reply wait — small payloads
        together, an oversized one alone — then awaits the replies one
        at a time and completes each task the moment its reply lands. A
        fast payload's completion (and the speculation check it feeds)
        is therefore never held hostage by a slow pipe-mate, and a lost
        worker recovers just this window. The cycle ends when the window
        drains; it never refills from the ready queues.
        """
        window = [head]
        inline_extras: list[Task] = []
        failed_extras: list[tuple[Task, PlatformError]] = []
        if len(head[1]) <= BATCH_BYTES:
            with self._cond:
                shippable, inline_extras, failed_extras = \
                    self._take_extras(wid)
            window.extend(shippable)
        # Claims that cannot ship resolve on the coordinator first.
        for extra, exc in failed_extras:
            self._finish_dispatch(wid, extra, {}, exc)
        for extra in inline_extras:
            self._run_here(wid, extra)
        fifo: deque[tuple[Task, bytes, float]] = deque()  # in-pipe window
        chunk: list[tuple[Task, bytes]] = []
        for task, blob in window:
            if len(blob) > BATCH_BYTES:
                self._ship(wid, chunk, fifo)
                self._ship(wid, [(task, blob)], fifo)
                chunk = []
            else:
                chunk.append((task, blob))
        self._ship(wid, chunk, fifo)
        while fifo:
            try:
                status, payload = self.supervisor.recv_reply(
                    wid, self.dispatch_timeout_s)
            except WorkerLost as lost:
                self._recover_stream(wid, lost, fifo)
                continue
            task, blob, t_sent = fifo.popleft()
            self._resolve_reply(wid, task, status, payload,
                                wall_us=self._clock() - t_sent)

    def _ship(self, wid: int, chunk: list[tuple[Task, bytes]],
              fifo: deque[tuple[Task, bytes, float]]) -> None:
        """Send one pipe message of the window, appending its payloads to
        the in-pipe ``fifo``.

        A member aborted since its claim is reaped here, never shipped;
        a seat that degraded mid-run runs the message inline instead.
        """
        live: list[tuple[Task, bytes]] = []
        for task, blob in chunk:
            if task.abort_requested:
                self._finish_dispatch(wid, task, {}, None)
            else:
                live.append((task, blob))
        if not live:
            return
        if not self.supervisor.alive(wid):
            # Seat degraded mid-run: the coordinator is the execution
            # substrate of last resort.
            for task, _blob in live:
                t0 = self._clock()
                status, payload = ((_SKIPPED, None) if task.abort_requested
                                   else self._reply_inline(task))
                self._resolve_reply(wid, task, status, payload,
                                    wall_us=self._clock() - t0)
            return
        try:
            self.supervisor.send(
                wid, [b for _t, b in live],
                tuple(ref for t, _b in live for ref in t.payload_refs()))
        except WorkerLost as lost:
            now = self._clock()
            fifo.extend((t, b, now) for t, b in live)
            self._recover_stream(wid, lost, fifo)
            return
        now = self._clock()
        fifo.extend((t, b, now) for t, b in live)
        self._account_shipped(live)


register_executor("procs", ProcessExecutor)
