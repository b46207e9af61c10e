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
* **batching with streaming replies** — when the ready queues hold more
  work than there are idle seats, small payloads ride along in one pipe
  message (one header + payload frames), amortising syscalls and wakeups
  across kernels. The worker replies **once per payload**, not once per
  batch, and the coordinator completes each task the moment its reply
  lands — a fast batch-mate's result (often the histogram a verification
  check is waiting on) is never held hostage behind a slow member's body.
  Batching never starves parallelism: extras are claimed only while every
  idle seat still has a task left in the queues.
* **work-stealing deques** — claimed-but-unshipped work parks in a
  per-seat deque instead of being pinned to the seat that batched it. An
  idle coordinator (empty queues, empty own deque) steals half of the
  deepest victim deque, from its tail, and ships the stolen payloads down
  its *own* worker's pipe (``task_steal`` events, ``procs_tasks_stolen``).
  A straggling worker therefore delays only the payloads already in its
  pipe, never the backlog claimed on its behalf. ``steal=False`` disables
  stealing (RunConfig/CLI knob).

Three classes of task never leave the coordinator:

* **control tasks** (predict / verify / check) — tiny and latency-critical,
  they run inline, as the Cell PPE runs control code;
* **unpicklable payloads** (closures over coordinator state) — run inline
  rather than failing, so pipelines mixing shippable kernels with
  closure-based glue work unmodified;
* tasks whose payload footprint exceeds the budget — these *fail*
  (configuration error), matching the local-store discipline.

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
(cf. distributed speculative execution): every dispatch awaits its reply
under a deadline scaled by batch size while also watching the worker's
``Process.sentinel``; a dead or wedged worker is killed, accounted
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

The supervisor is the runtime's one seat state machine, and it does not
care what a seat is: it drives seats through a **link**. The
:class:`PipeLink` here forks worker processes on pipes; the distributed
back-end's socket link (:class:`~repro.sre.executor_dist.RemotePool`)
connects each seat to a remote worker pool. Both feed the same sequence
check, the same respawn/degrade ladder and the same ``worker_*`` events.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
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
from repro.obs.events import EventLog
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
           "DEFAULT_PAYLOAD_BUDGET", "DEFAULT_BATCH_MAX",
           "DEFAULT_BATCH_BYTES", "DEFAULT_DISPATCH_TIMEOUT_S",
           "DEFAULT_HARVEST_TIMEOUT_S"]

#: Default per-task payload-footprint cap (bytes): wire bytes plus bytes of
#: every shared-memory block the payload references. Far roomier than the
#: Cell's 32 KB local-store slots — pipes and mmaps don't mind — but the
#: discipline is the same: a task that drags megabytes of captured state to
#: a worker is a pipeline bug, and it should fail loudly at dispatch.
DEFAULT_PAYLOAD_BUDGET = 8 * 1024 * 1024

#: Most tasks a coordinator thread ships in one pipe message.
DEFAULT_BATCH_MAX = 8

#: Only payloads at or below this wire size are batched; bigger ones ship
#: alone so a long transfer never delays unrelated small kernels.
DEFAULT_BATCH_BYTES = 64 * 1024

#: Per-payload reply deadline (seconds). Replies stream back one per
#: payload, so each reply gets this long — the deadline is **never**
#: scaled by batch size, and a wedged worker is detected within one
#: deadline however deep its pipe. Generous against slow kernels and
#: loaded machines, tight enough that a wedged worker cannot stall a run
#: forever. Configurable per run (``RunConfig.dispatch_timeout_s``).
DEFAULT_DISPATCH_TIMEOUT_S = 60.0

#: How long the stop path waits for each worker's final metrics/events
#: harvest before declaring it lost (``worker_harvest_lost``).
DEFAULT_HARVEST_TIMEOUT_S = 2.0

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
                  incarnation: int = 0) -> None:
    """Worker-process loop: receive payload batches, observe abort flags,
    reply once per payload as each body finishes (streaming replies).

    Module-level so it imports cleanly under any multiprocessing start
    method. The worker owns no runtime state — it is a pure payload engine.
    Shared-memory segments referenced by payloads are attached lazily (the
    first ref into a segment pays the map; every later ref is a pointer),
    and detached when the stop sentinel arrives.

    Each worker keeps its own :class:`~repro.obs.metrics.MetricsRegistry`
    (payload counts, errors, abort skips, body wall time, attached
    segments) and its own :class:`~repro.obs.events.EventLog` (one
    ``worker_exec`` event per payload); on the stop sentinel it sends both
    back up the pipe as a final ``(_METRICS, {"metrics": ..., "events":
    ...})`` reply — the coordinator folds the snapshot into the run's
    registry and reconciles the events into the run's log with fresh
    coordinator seqs (cross-process aggregation over the existing wire,
    no extra channel).

    ``fault_plan`` / ``incarnation`` arm deterministic chaos (see
    :mod:`repro.testing.faults`): the injector fires *before* a batch's
    payloads run, so an injected kill/hang/drop always leaves the batch
    unacknowledged — exactly the wreckage the supervisor must clean up.

    The batch header is ``(frame_count, traceparent)`` — the coordinator
    forwards the active span context of the job it is running, and the
    worker stamps that trace id onto every event it emits until the next
    batch says otherwise (:meth:`EventLog.set_trace_context`), so merged
    ``worker_exec`` events join the job's distributed trace. A bare-int
    header (no trace) is accepted too. ``_FLUSH`` triggers a mid-lifetime
    harvest: the worker ships its interval snapshot exactly like on
    ``_STOP`` but then resets its registry/log and keeps serving — how a
    warm lane's workers account per job instead of per daemon lifetime.
    """
    injector = FaultInjector(fault_plan, wid, incarnation)
    w = str(wid)

    def _fresh_state():
        """Registry + event log + bound instruments for one harvest
        interval (worker start -> first flush, flush -> flush, ... ->
        stop)."""
        metrics = MetricsRegistry()
        events = EventLog(run_id=f"w{wid}")
        m_tasks = metrics.counter(
            "procs_worker_tasks", "payloads executed in worker processes",
            labelnames=("worker",)).labels(worker=w)
        m_errors = metrics.counter(
            "procs_worker_errors", "payloads that raised in worker processes",
            labelnames=("worker",)).labels(worker=w)
        m_skips = metrics.counter(
            "procs_worker_abort_skips",
            "payloads skipped because the destroy signal landed first",
            labelnames=("worker",)).labels(worker=w)
        m_gone = metrics.counter(
            "procs_worker_segment_gone",
            "payloads bounced because a shared segment was already reclaimed",
            labelnames=("worker",)).labels(worker=w)
        m_body_us = metrics.histogram(
            "procs_worker_body_us", "payload body wall time in worker (µs)",
            labelnames=("worker",)).labels(worker=w)
        m_attached = metrics.gauge(
            "procs_worker_shm_attached",
            "shared-memory segments a worker had attached at shutdown",
            labelnames=("worker",)).labels(worker=w)
        return (metrics, events, m_tasks, m_errors, m_skips, m_gone,
                m_body_us, m_attached)

    (metrics, events, m_tasks, m_errors, m_skips, m_gone,
     m_body_us, m_attached) = _fresh_state()
    seq = 0  # payloads *received* this incarnation; replies are tagged with it
    while True:
        try:
            head = conn.recv_bytes()
        except (EOFError, OSError):
            return
        if head in (_STOP, _FLUSH):
            m_attached.set(len(shm.attached_segments()))
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
            (metrics, events, m_tasks, m_errors, m_skips, m_gone,
             m_body_us, m_attached) = _fresh_state()
            events.set_trace_context(trace_ctx)
            continue
        try:
            header = pickle.loads(head)
            if isinstance(header, tuple):
                n, traceparent = header
            else:  # bare-count header from a trace-less dispatcher
                n, traceparent = header, None
            blobs = [conn.recv_bytes() for _ in range(n)]
        except (EOFError, OSError):
            return
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
                m_skips.inc()
                events.emit("worker_exec", status="abort-skipped",
                            wire_bytes=len(blob))
                status, payload = _SKIPPED, None
            else:
                t0 = time.perf_counter()
                try:
                    outputs = Task.run_payload(blob)
                except SegmentGone as exc:
                    m_gone.inc()
                    events.emit("worker_exec", status="segment-gone",
                                wire_bytes=len(blob))
                    status, payload = _GONE, str(exc)
                except BaseException:
                    m_errors.inc()
                    events.emit("worker_exec", status="error",
                                wire_bytes=len(blob))
                    status, payload = _ERR, traceback.format_exc()
                else:
                    dur_us = (time.perf_counter() - t0) * 1e6
                    m_tasks.inc()
                    m_body_us.observe(dur_us)
                    events.emit("worker_exec", status="ok", dur_us=dur_us,
                                wire_bytes=len(blob))
                    status, payload = _OK, outputs
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


class _Claimed:
    """A deque'd ``(task, blob)`` pair popped by ``_acquire_work`` —
    already serialized and accounted in flight, not yet shipped."""

    __slots__ = ("task", "blob")

    def __init__(self, task: Task, blob: bytes) -> None:
        self.task = task
        self.blob = blob


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

    def __init__(self, *, max_retries: int = 2, backoff_s: float = 0.05,
                 backoff_cap_s: float = 2.0) -> None:
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

    def bind_metrics(self, m: MetricsRegistry) -> None:
        self._m_harvest_lost = m.counter(
            "procs_worker_harvest_lost",
            "workers whose final metrics/events snapshot could not be "
            "harvested at shutdown",
            labelnames=("reason",))

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
                  seat.incarnation),
            name=f"sre-proc-{seat.wid}.{seat.incarnation}",
            daemon=True,
        )
        proc.start()
        child.close()
        seat.proc, seat.conn = proc, parent
        return None

    def send(self, seat: _Slot, traceparent: str | None,
             frames: list[bytes]) -> None:
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
                    reply = conn.recv()
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
        sentinel and ``harvest_timeout_s`` to reply with its snapshot,
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
                if not seat.conn.poll(self.sup.harvest_timeout_s):
                    self._harvest_lost(seat.wid, late)
                    continue
                reply = seat.conn.recv()
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
        self._m_harvest_lost.labels(reason=reason).inc()
        self.sup.runtime.events.emit("worker_harvest_lost", worker=wid,
                                     reason=reason,
                                     timeout_s=self.sup.harvest_timeout_s)


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
      bounded by ``max_respawns``; past the budget, when the link is
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
        max_respawns: int = 3,
        harvest_timeout_s: float = DEFAULT_HARVEST_TIMEOUT_S,
    ) -> None:
        if max_respawns < 0:
            raise SchedulingError("max_respawns must be >= 0")
        if harvest_timeout_s <= 0:
            raise SchedulingError("harvest_timeout_s must be positive")
        self.link = link
        self.n_workers = workers
        self.fault_plan = fault_plan
        self.max_respawns = max_respawns
        self.harvest_timeout_s = harvest_timeout_s
        self._slots = [_Slot(wid) for wid in range(workers)]
        link.bind(self)
        self.abort_flags = link.abort_flags
        self._bind_runtime(runtime)

    def _bind_runtime(self, runtime: Runtime) -> None:
        self.runtime = runtime
        m = runtime.metrics
        names = self.link.METRICS
        self._m_lost = m.counter(*names["lost"], labelnames=("cause",))
        self._m_respawns = m.counter(*names["respawned"])
        self._m_degraded = m.gauge(*names["degraded"])
        self.link.bind_metrics(m)

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

    def send(self, wid: int, frames: list[bytes]) -> None:
        """Ship one message of payload frames to seat ``wid``.

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
                       frames)
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
        self._m_lost.labels(cause=lost.cause).inc()
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
        lost, or the link refuses or fails to open the seat. Emits
        ``worker_respawn`` / ``worker_degraded`` under whatever cause
        scope the caller holds (the crash event).
        """
        seat = self._slots[wid]
        if seat.degraded:
            return False
        if seat.respawns >= self.max_respawns:
            self._degrade(seat, "respawn budget exhausted")
            return False
        if self.link.lost:
            self._degrade(seat, self.link.lost)
            return False
        seat.respawns += 1
        try:
            refused = self._open(seat)
        except (OSError, TransportError) as exc:
            refused = f"respawn failed: {exc}"
        if refused:
            self._degrade(seat, refused)
            return False
        self._m_respawns.inc()
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
        self._m_degraded.inc()
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
        payload_budget: per-task payload-footprint cap in bytes (wire
            bytes + referenced shared-memory bytes).
        batch_max: most tasks shipped in one pipe message (1 disables
            batching).
        batch_bytes: only payloads at or below this wire size are batched.
        steal: allow idle seats to steal claimed-but-unshipped work from
            a straggling seat's deque (half the deque, from its tail).
            Disable to pin every claimed task to the seat that batched it
            (useful for A/B-ing straggler behaviour).
        start_method: multiprocessing start method; default prefers
            ``fork`` (cheap, inherits imports) where available.
        dispatch_timeout_s: per-payload reply deadline. Replies stream
            back one per payload, so each gets this long — the deadline
            is never scaled by batch size.
        max_task_retries: worker deaths one task may cause/witness before
            it is quarantined (fails through the ``task_failed`` path).
        retry_backoff_s: base of the exponential re-dispatch backoff.
        max_worker_respawns: replacement processes one seat may consume
            before it degrades to coordinator-inline execution.
        harvest_timeout_s: shutdown grace per worker for the final
            metrics/events harvest.
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
            count, and ``fault_plan``/``max_worker_respawns``/
            ``harvest_timeout_s`` are the supervisor's own (per-lane)
            settings, not per-job ones.
    """

    def __init__(
        self,
        runtime: Runtime,
        *,
        policy: DispatchPolicy | str = "conservative",
        workers: int = 4,
        payload_budget: int = DEFAULT_PAYLOAD_BUDGET,
        batch_max: int = DEFAULT_BATCH_MAX,
        batch_bytes: int = DEFAULT_BATCH_BYTES,
        steal: bool = True,
        start_method: str | None = None,
        dispatch_timeout_s: float = DEFAULT_DISPATCH_TIMEOUT_S,
        max_task_retries: int = 2,
        retry_backoff_s: float = 0.05,
        max_worker_respawns: int = 3,
        harvest_timeout_s: float = DEFAULT_HARVEST_TIMEOUT_S,
        fault_plan: FaultPlan | str | None = None,
        store: "shm.BlockStore | None" = None,
        supervisor: WorkerSupervisor | None = None,
    ) -> None:
        super().__init__(runtime, policy=policy, workers=workers)
        if payload_budget < 1:
            raise SchedulingError("payload_budget must be positive")
        if batch_max < 1:
            raise SchedulingError("batch_max must be >= 1")
        if dispatch_timeout_s <= 0:
            raise SchedulingError("dispatch_timeout_s must be positive")
        self.payload_budget = payload_budget
        self.batch_max = batch_max
        self.batch_bytes = batch_bytes
        self.steal = steal
        self.dispatch_timeout_s = dispatch_timeout_s
        if start_method is not None:
            self._ctx = multiprocessing.get_context(start_method)
        else:
            try:
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
                fault_plan=FaultPlan.parse(fault_plan),
                max_respawns=max_worker_respawns,
                harvest_timeout_s=harvest_timeout_s)
            self._owns_supervisor = True
        self.retry_policy = RetryPolicy(max_retries=max_task_retries,
                                        backoff_s=retry_backoff_s)
        self._store = store
        #: all tasks currently in a worker's pipe, by seat. Only *shipped*
        #: payloads live here (the abort-flag relay targets the worker's
        #: address space); claimed-but-unshipped work lives in _deques.
        self._current: list[list[Task]] = [[] for _ in range(workers)]
        #: per-seat deques of claimed-but-unshipped (task, blob) pairs.
        #: Appended only by the owning seat; idle seats steal from the
        #: tail under the lock.
        self._deques: list[deque[tuple[Task, bytes]]] = [
            deque() for _ in range(workers)]
        #: seats currently inside a dispatch cycle (lock-protected); the
        #: batching guard computes idleness from this, not from the
        #: in-flight *task* count.
        self._busy: list[bool] = [False] * workers
        #: each busy seat's current dispatch_stream event seq — the causal
        #: parent for task_steal events against that seat.
        self._stream_seq: list[int | None] = [None] * workers
        #: Introspection counters (coordinator-lock protected). Mirrored as
        #: registry metrics (procs_tasks_shipped / _inline / payload_bytes)
        #: so exporters see them without touching executor internals.
        self.tasks_shipped = 0
        self.tasks_inline = 0
        self.payload_bytes = 0
        self.payload_bytes_avoided = 0
        self.batches = 0
        m = runtime.metrics
        self._m_shipped = m.counter(
            "procs_tasks_shipped", "task payloads shipped to worker processes")
        self._m_inline = m.counter(
            "procs_tasks_inline",
            "tasks run inline on the coordinator (control/unpicklable)")
        self._m_payload_bytes = m.counter(
            "procs_payload_bytes", "serialized payload bytes sent to workers")
        self._m_bytes_avoided = m.counter(
            "procs_payload_bytes_avoided",
            "bytes that stayed in shared memory instead of crossing the pipe")
        self._m_batches = m.counter(
            "procs_batches", "pipe messages carrying more than one payload")
        self._m_batched = m.counter(
            "procs_batched_tasks", "payloads that rode along in a batch")
        self._m_reruns = m.counter(
            "procs_inline_reruns",
            "worker-skipped payloads re-run inline on the coordinator")
        self._m_retries = m.counter(
            "procs_task_retries",
            "payload re-dispatches after a worker died mid-batch")
        self._m_quarantined = m.counter(
            "procs_tasks_quarantined",
            "tasks failed permanently after repeatedly losing their worker")
        self._m_stolen = m.counter(
            "procs_tasks_stolen",
            "claimed payloads stolen from a straggling seat's deque by an "
            "idle seat")
        self._m_stream_depth = m.histogram(
            "procs_reply_stream_depth",
            "payloads still unanswered in a seat's pipe when one streamed "
            "reply landed")
        #: Budget-pressure pair for the anomaly detectors: configured cap
        #: vs the largest footprint actually shipped.
        m.gauge("procs_payload_budget_bytes",
                "configured per-task payload-footprint cap").set(payload_budget)
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
        current = self._current[wid]
        current.append(task)
        if not any(t.abort_requested for t in current):
            # Reset only when no in-flight batch member is flagged — a
            # destroy signal raised for an earlier member must survive
            # later members joining the batch.
            self._abort_flags[wid] = 0

    def _note_complete(self, wid: int, task: Task) -> None:
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
        if task.control:
            return None
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
        if footprint > self.payload_budget:
            raise PlatformError(
                f"task {task.name!r}: payload footprint {footprint} B "
                f"({len(blob)} B wire + referenced shared blocks) exceeds "
                f"the process back-end budget {self.payload_budget} B "
                "(cf. the Cell local-store per-task cap)"
            )

    def _run_inline(self, task: Task) -> dict[str, Any]:
        with self._cond:
            self.tasks_inline += 1
        self._m_inline.inc()
        return task.run()

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
        """Claim extra ready tasks into this seat's dispatch stream.

        Called under the lock. Extras are claimed only while the ready
        queues hold more tasks than there are idle *seats* — batching
        amortises pipe traffic without ever serialising work an idle
        seat could overlap. Shippable claims are accounted in flight
        (``queued=True`` — no ``_note_dispatch`` yet) and parked in the
        seat's deque by the caller, where an idle seat may steal them;
        control/unpicklable extras are returned for prompt inline
        execution; budget violators are returned as failures.
        """
        shippable: list[tuple[Task, bytes]] = []
        inline: list[Task] = []
        failed: list[tuple[Task, PlatformError]] = []
        limit = 2 * self.batch_max - 1  # one pipe window + one deque refill
        while len(shippable) < limit:
            nat = self.runtime.natural_queue
            spec = self.runtime.speculative_queue
            if len(nat) + len(spec) <= self._idle_seats():
                break
            extra = self.policy.select(nat, spec)
            if extra is None:
                break
            if extra.abort_requested or extra.control:
                self._begin_dispatch(wid, extra)
                inline.append(extra)
                continue
            self._begin_dispatch(wid, extra, queued=True)
            blob = self._serialize_or_none(extra)
            if blob is None or len(blob) > self.batch_bytes:
                # Unpicklable, or too big to ride along: run it inline
                # rather than delaying the stream (already accounted).
                self._note_dispatch(wid, extra)
                inline.append(extra)
                continue
            try:
                self._check_budget(extra, blob)
            except PlatformError as exc:
                self._note_dispatch(wid, extra)
                failed.append((extra, exc))
                continue
            shippable.append((extra, blob))
        return shippable, inline, failed

    def _finish_inline_extra(self, wid: int, extra: Task) -> None:
        failure: BaseException | None = None
        outputs: dict[str, Any] = {}
        t0 = self._clock()
        if not extra.abort_requested:
            with self._cond:
                self.tasks_inline += 1
            self._m_inline.inc()
            try:
                outputs = extra.run()
            except Exception as exc:
                failure = exc
        self._finish_dispatch(wid, extra, outputs, failure,
                              wall_us=self._clock() - t0)

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
        with self._cond:
            self.tasks_shipped += len(pairs)
            self.payload_bytes += wire
            self.payload_bytes_avoided += avoided
            if len(pairs) > 1:
                self.batches += 1
        self._m_shipped.inc(len(pairs))
        self._m_payload_bytes.inc(wire)
        if avoided:
            self._m_bytes_avoided.inc(avoided)
        if len(pairs) > 1:
            self._m_batches.inc()
            self._m_batched.inc(len(pairs) - 1)

    def _ship_one(self, wid: int, task: Task, blob: bytes
                  ) -> tuple[str, Any]:
        """One single-payload round trip (the crash re-dispatch path)."""
        self.supervisor.send(wid, [blob])
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
        self._m_quarantined.inc()
        self.runtime.events.emit(
            "task_quarantine", task=task.name,
            version=task.tags.get("spec_version"),
            attempts=self.retry_policy.attempts(task.name))
        if self._store is not None:
            refs = list(shm.iter_refs((task.fn, task.inputs)))
            if refs:
                self._store.release_crashed(refs)
        return (_ERR, (
            f"task {task.name!r} quarantined: its payload lost its worker "
            f"{self.retry_policy.attempts(task.name)} time(s) "
            f"(max_task_retries={self.retry_policy.max_retries})"))

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
            self._m_retries.inc()
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
        crash_seq = self._handle_worker_lost(
            wid, lost, [t for t, _b, _ts in pending])
        with self.runtime.events.cause(crash_seq):
            for task, blob, _t_sent in pending:
                t0 = self._clock()
                status, payload = self._redispatch(wid, task, blob)
                self._resolve_reply(wid, task, status, payload,
                                    wall_us=self._clock() - t0)

    # ------------------------------------------------------------------
    # work acquisition: own deque -> ready queues -> steal
    # ------------------------------------------------------------------
    def _acquire_work(self, wid: int) -> Any:
        """Take work for seat ``wid``: its own deque first, then the
        ready queues, then — both empty — steal from a straggling seat.

        Called under the lock. Queue pops are accounted ``queued=True``:
        the task counts as in flight immediately (``wait_idle`` must not
        drain under it) but ``_note_dispatch`` — the abort-flag relay
        into the worker's address space — only happens when the payload
        actually ships, possibly from a different seat after a steal.
        """
        dq = self._deques[wid]
        if dq:
            self._busy[wid] = True
            return _Claimed(*dq.popleft())
        task = self.policy.select(
            self.runtime.natural_queue, self.runtime.speculative_queue)
        if task is not None:
            self._begin_dispatch(wid, task, queued=True)
            self._busy[wid] = True
            return task
        if self.steal and self._steal_into(wid):
            self._busy[wid] = True
            return _Claimed(*dq.popleft())
        return None

    def _steal_into(self, wid: int) -> bool:
        """Steal half of the deepest victim deque into seat ``wid``'s.

        Called under the lock. Steals from the victim's **tail** — the
        victim keeps draining its head undisturbed — preserving claim
        order among the stolen tasks. Each theft is a ``task_steal``
        event causally rooted in the victim's ``dispatch_stream``.
        """
        victim, depth = -1, 0
        for vid, vdq in enumerate(self._deques):
            if vid != wid and len(vdq) > depth:
                victim, depth = vid, len(vdq)
        if depth == 0:
            return False
        vdq = self._deques[victim]
        stolen = [vdq.pop() for _ in range((depth + 1) // 2)]
        stolen.reverse()
        cause = self._stream_seq[victim]
        for task, _blob in stolen:
            self._m_stolen.inc()
            self.runtime.events.emit(
                "task_steal", task=task.name,
                version=task.tags.get("spec_version"),
                cause=cause, worker=wid, from_worker=victim)
        self._deques[wid].extend(stolen)
        return True

    # ------------------------------------------------------------------
    # the streaming dispatch cycle
    # ------------------------------------------------------------------
    def _dispatch_cycle(self, wid: int, work: Any) -> None:
        """Drive one acquired unit of work — and everything claimed or
        stolen along the way — to completion."""
        try:
            if isinstance(work, _Claimed):
                self._run_stream(wid, (work.task, work.blob))
            else:
                self._run_primary(wid, work)
        finally:
            with self._cond:
                self._busy[wid] = False
                self._stream_seq[wid] = None
                self._cond.notify_all()

    def _run_primary(self, wid: int, task: Task) -> None:
        """Resolve a task popped straight off the ready queues.

        Control tasks and closure-captured payloads run inline on the
        coordinator (see the module docstring); budget violators fail;
        everything else enters the streaming dispatch path.
        """
        t0 = self._clock()
        if task.abort_requested:
            self._finish_dispatch(wid, task, {}, None,
                                  wall_us=self._clock() - t0)
            return
        blob = self._serialize_or_none(task)
        if blob is not None:
            try:
                self._check_budget(task, blob)
            except PlatformError as exc:
                self._finish_dispatch(wid, task, {}, exc,
                                      wall_us=self._clock() - t0)
                return
        if blob is None or not self.supervisor.alive(wid):
            outputs: dict[str, Any] = {}
            failure: BaseException | None = None
            try:
                outputs = self._run_inline(task)
            except Exception as exc:
                failure = exc
            self._finish_dispatch(wid, task, outputs, failure,
                                  wall_us=self._clock() - t0)
            return
        self._run_stream(wid, (task, blob))

    def _run_stream(self, wid: int, head: tuple[Task, bytes]) -> None:
        """The streaming dispatch cycle for seat ``wid``.

        Repeatedly: top up the pipe window (at most ``batch_max``
        unanswered payloads) from the seat's deque — claiming extra
        ready work on the first pass, while the queues are deeper than
        the idle seats — then await exactly **one** reply and complete
        its task the moment it lands. A fast payload's completion (and
        the speculation check it feeds) is therefore never held hostage
        by a slow pipe-mate; a lost worker recovers just the in-pipe
        window, and claimed-but-unshipped work stays stealable in the
        deque the whole time. The cycle ends when the window and the
        deque are both empty.
        """
        fifo: deque[tuple[Task, bytes, float]] = deque()  # in-pipe window
        claim = self.batch_max > 1 and len(head[1]) <= self.batch_bytes
        pending_head: tuple[Task, bytes] | None = head
        while True:
            chunk: list[tuple[Task, bytes]] = []
            reaped: list[Task] = []
            inline_extras: list[Task] = []
            failed_extras: list[tuple[Task, PlatformError]] = []
            with self._cond:
                dq = self._deques[wid]
                if pending_head is not None:
                    dq.appendleft(pending_head)
                    pending_head = None
                if claim:
                    shippable, inline_extras, failed_extras = \
                        self._take_extras(wid)
                    dq.extend(shippable)
                    claim = False
                while dq and len(fifo) + len(chunk) < self.batch_max:
                    task, blob = dq.popleft()
                    if task.abort_requested:
                        reaped.append(task)
                        continue
                    self._note_dispatch(wid, task)
                    chunk.append((task, blob))
                drained = not dq
            # Claims that cannot ship resolve on the coordinator before
            # this thread blocks in the reply wait.
            for extra, exc in failed_extras:
                self._finish_dispatch(wid, extra, {}, exc)
            for extra in inline_extras:
                self._finish_inline_extra(wid, extra)
            for task in reaped:
                self._finish_dispatch(wid, task, {}, None)
            if chunk:
                if not self.supervisor.alive(wid):
                    # Seat degraded mid-run: the coordinator is the
                    # execution substrate of last resort.
                    for task, _blob in chunk:
                        t0 = self._clock()
                        status, payload = ((_SKIPPED, None)
                                           if task.abort_requested
                                           else self._reply_inline(task))
                        self._resolve_reply(wid, task, status, payload,
                                            wall_us=self._clock() - t0)
                else:
                    announce = self._stream_seq[wid] is None
                    try:
                        self.supervisor.send(wid, [b for _t, b in chunk])
                    except WorkerLost as lost:
                        now = self._clock()
                        fifo.extend((t, b, now) for t, b in chunk)
                        self._recover_stream(wid, lost, fifo)
                        continue
                    now = self._clock()
                    fifo.extend((t, b, now) for t, b in chunk)
                    self._account_shipped(chunk)
                    if announce:
                        self._stream_seq[wid] = self.runtime.events.emit(
                            "dispatch_stream", worker=wid,
                            payloads=len(chunk),
                            queued=len(self._deques[wid]))
            if not fifo:
                if drained:
                    return
                continue
            try:
                status, payload = self.supervisor.recv_reply(
                    wid, self.dispatch_timeout_s)
            except WorkerLost as lost:
                self._recover_stream(wid, lost, fifo)
                continue
            task, blob, t_sent = fifo.popleft()
            self._m_stream_depth.observe(len(fifo) + 1)
            self._resolve_reply(wid, task, status, payload,
                                wall_us=self._clock() - t_sent)


register_executor("procs", ProcessExecutor)
