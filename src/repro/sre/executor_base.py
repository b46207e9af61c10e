"""Shared lifecycle for the live (wall-clock) executors.

:class:`LiveExecutor` owns everything the threaded and process back-ends
have in common: the runtime lock, the worker condition variable, the
wall-clock µs time source, input open/close discipline, the drain protocol
(``wait_idle``) and the coordinator worker loop. Subclasses supply the
execution substrate through a few hooks:

* :meth:`_run_inline` — run a task body in this process (the procs
  back-end counts each one it runs instead of shipping);
* :meth:`_acquire_work` — called under the lock to take the next task
  for a seat: pop the ready queues through the policy and account the
  dispatch. Work waits in the ready queues, never in a seat-local
  backlog, so whichever seat frees first takes it;
* :meth:`_dispatch_cycle` — run one acquired task to completion. The
  base implementation runs it on the dispatching thread; a streaming
  back-end overrides it to ship the task with a bounded window of
  extras to another address space and complete each the moment its
  reply lands;
* :meth:`_start_backend` / :meth:`_stop_backend` — bring auxiliary
  resources (worker processes, pipes) up and down around the coordinator
  threads.

A back-end whose seats pay a trip to another address space sets
:attr:`LiveExecutor.RUNS_LOCAL`: ready local tasks (``Task.local`` —
control tasks and cheap serial-chain links such as Huffman's reduce,
offset and tree tasks) then bypass the seats entirely. The thread whose
completion made them ready runs them, one after another, under the
worker id :data:`~repro.obs.events.COORDINATOR_WORKER` — so a serial
chain never waits behind a worker's pipe window.

Every runtime decision — dispatch policy, speculation, rollback — happens
on the coordinator under one lock, whatever the substrate. Task failures
never kill a coordinator thread: the failing task is reaped like a
mis-speculation, its dependence cone is aborted, and the error is re-raised
from :meth:`run` / :meth:`raise_errors` once the graph drains.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.errors import SchedulingError, TaskExecutionError
from repro.obs.events import COORDINATOR_WORKER
from repro.sre.policies import DispatchPolicy, get_policy
from repro.sre.runtime import Runtime
from repro.sre.task import Task

__all__ = ["LiveExecutor"]


class LiveExecutor:
    """Base class running a :class:`~repro.sre.runtime.Runtime` on real time.

    Usage (identical for every live back-end)::

        ex = SomeExecutor(runtime, workers=4, policy="balanced")
        ex.start()
        ...deliver external inputs (possibly over time)...
        ex.close_input()
        ex.wait_idle()
        ex.shutdown()

    or simply ``ex.run()`` when all inputs are already delivered.

    Observability: the executor clock is *wall time in µs since
    construction*, and every event and metric uses it — so
    :mod:`repro.obs.traceview` exports (Chrome trace, ASCII Gantt)
    read identically for simulated and live runs. The executor registers
    its instruments (``exec_tasks_dispatched``, ``exec_inflight``,
    ``exec_task_wall_us{kind}``, ...) on ``runtime.metrics``; see
    docs/observability.md for the full catalogue. Worker ids are attached
    to the ``task_dispatch`` / ``task_done`` events.
    """

    #: Poll interval for the worker wait loop (seconds). The paper's workers
    #: poll for assigned tasks; we wait on a condition with a timeout so
    #: shutdown is prompt even if a notify is missed.
    POLL_S = 0.02

    #: True: ready local tasks run on the coordinator (see the module
    #: docstring) instead of entering the seats' ready queues.
    RUNS_LOCAL = False

    def __init__(
        self,
        runtime: Runtime,
        *,
        policy: DispatchPolicy | str = "conservative",
        workers: int = 4,
    ) -> None:
        if workers < 1:
            raise SchedulingError("need at least one worker")
        self.runtime = runtime
        self.policy = get_policy(policy) if isinstance(policy, str) else policy
        self.policy.reset()
        self.n_workers = workers
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._threads: list[threading.Thread] = []
        self._stop = False
        self._inflight = 0
        self._input_open = True
        self._started = False
        self._errors: list[TaskExecutionError] = []
        #: a thread is running the local queue (lock-protected)
        self._draining = False
        if self.RUNS_LOCAL:
            runtime.use_local_queue()
        self._t0 = time.perf_counter()
        runtime.set_clock(self._clock)
        runtime.add_ready_listener(self._on_ready)
        m = runtime.metrics
        # Folds (docs/flight-recorder.md): a dispatch is its task_dispatch,
        # a failure on a seat the task_failed that names the worker.
        dispatched = m.counter(
            "exec_tasks_dispatched", "tasks taken off a ready queue by a worker")
        failures = m.counter(
            "exec_task_failures", "task bodies that raised on a worker")

        def failed(event: dict[str, Any]) -> None:
            if "worker" in event:
                failures.inc()

        runtime.events.fold("task_dispatch", lambda _event: dispatched.inc())
        runtime.events.fold("task_failed", failed)
        self._m_inflight = m.gauge(
            "exec_inflight", "tasks currently executing on workers")
        self._m_workers = m.gauge("exec_workers", "configured worker count")
        self._m_workers.set(workers)
        self._m_task_wall = m.histogram(
            "exec_task_wall_us",
            "wall-clock µs a worker spent inside one task body",
            labelnames=("kind",))

    # ------------------------------------------------------------------
    # clock: wall time in µs since executor construction
    # ------------------------------------------------------------------
    def _clock(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    @property
    def now(self) -> float:
        """Wall time in µs since executor construction (the trace clock)."""
        return self._clock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bring up the execution substrate and the coordinator threads."""
        if self._started:
            raise SchedulingError("executor already started")
        self._started = True
        self._start_backend()
        for i in range(self.n_workers):
            t = threading.Thread(
                target=self._worker_loop, args=(i,), name=f"sre-worker-{i}", daemon=True
            )
            self._threads.append(t)
            t.start()
        self._drain_local()  # local tasks made ready before start

    def deliver(self, task: Task, port: str, value: Any) -> None:
        """Thread-safe external input injection.

        Raises :class:`SchedulingError` after :meth:`close_input` — input
        arriving post-close could race :meth:`wait_idle` into declaring the
        run drained while work is still appearing.
        """
        with self._cond:
            if not self._input_open:
                raise SchedulingError(
                    f"delivery to task {task.name!r} after close_input()"
                )
            self.runtime.deliver_external(task, port, value)
        self._drain_local()

    def submit(self, fn, *args, **kwargs):
        """Run a runtime-mutating callable under the executor lock."""
        with self._cond:
            result = fn(*args, **kwargs)
        self._drain_local()
        return result

    def close_input(self) -> None:
        """Declare that no further external inputs will arrive."""
        with self._cond:
            self._input_open = False
            self._cond.notify_all()

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until input is closed and all work has drained.

        Returns False on timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                idle = (
                    not self._input_open
                    and self._inflight == 0
                    and not self.runtime.natural_queue
                    and not self.runtime.speculative_queue
                    and not self.runtime.local_queue
                )
                if idle:
                    return True
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(self.POLL_S if remaining is None else min(self.POLL_S, remaining))

    def shutdown(self) -> None:
        """Stop and join the coordinator threads, then the substrate."""
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        for t in self._threads:
            t.join()  # bounded: each thread re-checks _stop every POLL_S
        self._threads.clear()
        self._stop_backend()

    def run(self, timeout: float | None = None) -> float:
        """Convenience: start, close input, drain, shut down.

        Returns the wall-clock finish time (µs on the executor clock).
        Re-raises the first task failure, if any, once the graph drained.
        """
        self.start()
        self.close_input()
        ok = self.wait_idle(timeout=timeout)
        self.shutdown()
        if not ok:
            raise SchedulingError(f"executor did not drain within {timeout}s")
        self.raise_errors()
        return self.now

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    @property
    def errors(self) -> list[TaskExecutionError]:
        """Task failures captured so far (the tasks were reaped + aborted)."""
        with self._cond:
            return list(self._errors)

    def raise_errors(self) -> None:
        """Re-raise the first captured task failure, if any."""
        with self._cond:
            if self._errors:
                raise self._errors[0]

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def utilisation(self) -> float:
        """Mean fraction of elapsed wall time the worker seats were busy.

        A seat is busy from the moment it claims a task until that task
        is done, so its busy time is the *union* of its tasks' claim→done
        spans on the executor clock: the tasks of one procs/dist pipe
        window overlap and count once. ``utilisation = Σ seat busy µs /
        (elapsed µs × workers)``. For the process back-end "busy"
        includes the seat's wait on its worker's pipe — occupancy, not
        CPU time. The coordinator lane does not count: it is not one of
        the ``workers``.
        """
        now = self.now
        if now <= 0:
            return 0.0
        busy, seat, covered = 0.0, None, 0.0
        for wid, start, finish in sorted(
                (t.worker, t.start_time, t.finish_time)
                for t in self.runtime.graph.tasks()
                if t.worker not in (None, COORDINATOR_WORKER)
                and t.finish_time is not None):
            if wid != seat:  # the next seat: none of its time covered yet
                seat, covered = wid, start
            busy += max(0.0, finish - max(start, covered))
            covered = max(covered, finish)
        return busy / (now * self.n_workers)

    # ------------------------------------------------------------------
    # substrate hooks
    # ------------------------------------------------------------------
    def _start_backend(self) -> None:
        """Bring up substrate resources before coordinator threads spawn."""

    def _stop_backend(self) -> None:
        """Tear down substrate resources after coordinator threads joined."""

    def _note_dispatch(self, wid: int, task: Task) -> None:
        """Called under the lock when worker ``wid`` takes ``task``."""

    def _note_complete(self, wid: int, task: Task) -> None:
        """Called under the lock when worker ``wid`` finishes ``task``."""

    def _run_inline(self, task: Task) -> dict[str, Any]:
        """Run a task body on the coordinator, outside the lock."""
        return task.run()

    # ------------------------------------------------------------------
    # dispatch bookkeeping (shared by the worker loop and batching
    # back-ends that take extra tasks mid-cycle)
    # ------------------------------------------------------------------
    def _begin_dispatch(self, wid: int, task: Task) -> None:
        """Account one task entering execution. Caller holds the lock."""
        self.runtime.begin_task(task, worker=wid)
        self.policy.notify_started(task)
        self._inflight += 1
        self._m_inflight.set(self._inflight)
        self._note_dispatch(wid, task)

    def _finish_dispatch(
        self,
        wid: int,
        task: Task,
        outputs: dict[str, Any],
        failure: BaseException | None,
        wall_us: float | None = None,
    ) -> None:
        """Account one dispatched task finishing (acquires the lock).

        Failures never kill a coordinator thread: the failing task is
        reaped like a mis-speculation — flagged so ``finish_task``
        discards the (empty) outputs, then its dependence cone destroyed
        in the cause scope of a ``task_failed`` event.
        """
        if wall_us is not None:
            self._m_task_wall.labels(kind=task.kind).observe(wall_us)
        events = self.runtime.events
        with self._cond:
            failed_seq = None
            if failure is not None:
                task.request_abort()
                failed_seq = events.emit(
                    "task_failed", task=task.name,
                    version=task.tags.get("spec_version"), worker=wid,
                    error=repr(failure))
            self._note_complete(wid, task)
            self.runtime.finish_task(task, outputs, precomputed=True,
                                     worker=wid)
            self.policy.notify_finished(task)
            self._inflight -= 1
            self._m_inflight.set(self._inflight)
            if failure is not None:
                with events.cause(failed_seq):
                    self.runtime.abort_dependents([task], include_roots=False)
                self._errors.append(TaskExecutionError(task.name, failure))
            self._cond.notify_all()
        self._drain_local()

    def _drain_local(self) -> None:
        """Run every ready local task on this thread, one at a time.

        Called by whichever thread may just have made tasks ready: one
        finishing a dispatch, or ``submit`` / ``deliver`` / ``start``.
        Each body runs outside the lock and completes through
        :meth:`_finish_dispatch` under :data:`COORDINATOR_WORKER`. A
        completion that readies further local tasks does not recurse —
        the call finds this thread draining and returns, and the loop
        picks them up. One thread drains at a time; the drainer finds
        the queue empty and stops draining in one critical section, so a
        task another thread readies meanwhile is never stranded.
        """
        queue = self.runtime.local_queue
        if not queue:  # None (not opted in) or empty: the common case
            return
        with self._cond:
            if self._draining:
                return
            self._draining = True
        while True:
            with self._cond:
                task = queue.pop()
                if task is None:
                    self._draining = False
                    return
                self._begin_dispatch(COORDINATOR_WORKER, task)
            try:
                self._run_here(COORDINATOR_WORKER, task)
            except BaseException:
                with self._cond:
                    self._draining = False
                raise

    def _run_here(self, wid: int, task: Task) -> None:
        """Run a claimed task's body on this thread and complete it as
        worker ``wid``; an aborted task is reaped without running."""
        failure: BaseException | None = None
        outputs: dict[str, Any] = {}
        t0 = self._clock()
        if not task.abort_requested:
            try:
                outputs = self._run_inline(task)
            except Exception as exc:
                failure = exc
        self._finish_dispatch(wid, task, outputs, failure,
                              wall_us=self._clock() - t0)

    # ------------------------------------------------------------------
    # coordinator worker loop
    # ------------------------------------------------------------------
    def _on_ready(self, task: Task) -> None:
        # May be called with or without the lock held (the RLock makes the
        # re-acquisition free when a worker triggered the readiness).
        with self._cond:
            self._cond.notify_all()

    def _acquire_work(self, wid: int) -> Task | None:
        """Take the next task for seat ``wid``; None when idle.

        Called under the lock: pops the ready queues through the dispatch
        policy and accounts the dispatch.
        """
        task = self.policy.select(
            self.runtime.natural_queue, self.runtime.speculative_queue
        )
        if task is not None:
            self._begin_dispatch(wid, task)
        return task

    def _dispatch_cycle(self, wid: int, task: Task) -> None:
        """Run one acquired task to completion (lock not held).

        The base cycle runs it right here. Streaming back-ends override
        this to complete several tasks per cycle as their replies land.
        """
        self._run_here(wid, task)

    def _worker_loop(self, wid: int) -> None:
        while True:
            with self._cond:
                work = None
                while not self._stop:
                    work = self._acquire_work(wid)
                    if work is not None:
                        break
                    self._cond.wait(self.POLL_S)
                if self._stop and work is None:
                    return
            # Compute outside the lock so task bodies overlap.
            self._dispatch_cycle(wid, work)
