"""The runtime core shared by both executors.

:class:`Runtime` owns the dynamic DFG, the split ready queues, memory
accounting, the flight recorder and the always-on metrics registry
(:mod:`repro.obs`). It implements everything except *when* tasks run:
executors call :meth:`begin_task` / :meth:`finish_task` around execution and
read ready tasks through the dispatch policy.

Key behaviours:

* **Dynamic graph** — tasks/edges may be added at any time, including from
  completion hooks; connecting a consumer to an already-finished producer
  delivers the buffered value immediately (the DFG is a snapshot of dynamic
  execution, §II-A).
* **Local tasks** — an executor that runs cheap serial-chain tasks on its
  coordinator (:attr:`Task.local <repro.sre.task.Task.local>`) opts in
  with :meth:`Runtime.use_local_queue`; ready local tasks then wait in a
  third queue it drains itself, never in the queues its workers claim
  from. Executors that do not opt in see one natural and one speculative
  queue, exactly as before.
* **Abort flags** — aborting a READY task removes it from its queue;
  aborting a RUNNING task only flags it, and the executor discards its
  results on completion (§III-B).
* **Side-effect discipline** — only side-effect-free tasks may be
  speculative; enforced at task creation and at connect time for sinks.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Iterable

from repro.errors import TaskExecutionError, TaskStateError
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.sre.graph import DFG
from repro.sre.memory import MemoryLedger, sizeof_value
from repro.sre.queues import ReadyQueue
from repro.sre.supertask import SuperTask
from repro.sre.task import Task, TaskState

__all__ = ["Runtime"]


class Runtime:
    """Graph + scheduling state for one streaming program execution."""

    def __init__(
        self,
        *,
        metrics: MetricsRegistry | None = None,
        events: EventLog | None = None,
        track_memory: bool = True,
        decisions: object | None = None,
    ) -> None:
        self.graph = DFG()
        #: Optional :class:`~repro.core.decisions.DecisionSource` adopted
        #: by any SpeculationManager built over this runtime (the seam
        #: the replay director injects through — docs/replay.md). The
        #: runtime itself never consults it; typed loosely because sre/
        #: must not depend on core/.
        self.decisions = decisions
        #: Always-on counter surface (see docs/observability.md): cheap
        #: enough to stay on, so long runs always have final accounting.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Structured event log with causal IDs (docs/flight-recorder.md):
        #: the run's one record of every task, and what
        #: :mod:`repro.obs.traceview` draws its charts from.
        self.events = events if events is not None else EventLog()
        self._init_metrics()
        self.memory = MemoryLedger() if track_memory else None
        self.natural_queue = ReadyQueue()
        self.speculative_queue = ReadyQueue()
        #: ready local tasks, once an executor opted in (use_local_queue)
        self.local_queue: ReadyQueue | None = None
        self.root = SuperTask("root")
        self._clock: Callable[[], float] = lambda: 0.0
        self._ready_listeners: list[Callable[[Task], None]] = []
        self._abort_flag_listeners: list[Callable[[Task], None]] = []

    def _init_metrics(self) -> None:
        """Create this runtime's instruments and the folds that feed them:
        each task fact is written once, as its event, and the
        ``sre_tasks_*`` series and :meth:`stats` are folds over those
        events (docs/flight-recorder.md has the table)."""
        m = self.metrics
        ready = m.counter(
            "sre_tasks_ready", "tasks that entered a ready queue")
        completed = m.counter(
            "sre_tasks_completed", "tasks finished with usable outputs",
            labelnames=("speculative",))
        aborted = m.counter(
            "sre_tasks_aborted", "tasks destroyed by abort/rollback",
            labelnames=("speculative",))
        completed = {True: completed.labels(speculative="yes"),
                     False: completed.labels(speculative="no")}
        aborted = {True: aborted.labels(speculative="yes"),
                   False: aborted.labels(speculative="no")}
        failures = m.counter(
            "sre_task_failures", "task bodies that raised an exception")
        depth = m.gauge("sre_ready_depth", "ready-queue length",
                        labelnames=("queue",))
        self._m_depth_nat = depth.labels(queue="natural")
        self._m_depth_spec = depth.labels(queue="speculative")
        task_us = m.histogram(
            "sre_task_us",
            "task occupancy start→done in µs on the executor clock "
            "(virtual for sim, wall for threads/procs)",
            labelnames=("kind",))
        #: (event kind, speculative?) -> task ends folded; what stats() reads
        self._ends: Counter[tuple[str, bool]] = Counter()

        def ended(event: dict[str, Any]) -> None:
            kind, spec = event["kind"], "speculative" in event
            if kind == "task_failed":
                if "worker" in event:
                    return  # a live executor's: finish_task reaps it as a task_abort
                failures.inc()
            self._ends[kind, spec] += 1
            if kind != "task_done":
                aborted[spec].inc()
                return
            completed[spec].inc()
            if "dur_us" in event:
                task_us.labels(kind=event["task_kind"]).observe(event["dur_us"])

        self.events.fold("task_ready", lambda _event: ready.inc())
        for kind in ("task_done", "task_abort", "task_failed"):
            self.events.fold(kind, ended)

    def _note_queue_depth(self) -> None:
        self._m_depth_nat.set(len(self.natural_queue))
        self._m_depth_spec.set(len(self.speculative_queue))

    # ------------------------------------------------------------------
    # wiring to an executor
    # ------------------------------------------------------------------
    def set_clock(self, clock: Callable[[], float]) -> None:
        """Install the executor's time source (simulated or wall-clock).

        The event log follows the same clock so event timestamps and
        latency histograms share a time base.
        """
        self._clock = clock
        self.events.set_clock(clock)

    @property
    def now(self) -> float:
        return self._clock()

    def use_local_queue(self) -> ReadyQueue:
        """Route ready local tasks to a queue of their own (idempotent).

        Called by an executor that runs local tasks on its coordinator.
        Local tasks already waiting in the natural or speculative queue
        move over, so from here on every ready local task is in
        :attr:`local_queue` — which is where an abort looks for it.
        """
        if self.local_queue is None:
            self.local_queue = ReadyQueue()
            for queue in (self.natural_queue, self.speculative_queue):
                for task in queue.extract(lambda t: t.local):
                    self.local_queue.push(task)
            self._note_queue_depth()
        return self.local_queue

    def add_ready_listener(self, fn: Callable[[Task], None]) -> None:
        """Executor hook: called whenever a task enters a ready queue."""
        self._ready_listeners.append(fn)

    def add_abort_flag_listener(self, fn: Callable[[Task], None]) -> None:
        """Executor hook: called when a RUNNING task is *flagged* for abort.

        The task itself is only reaped later, at completion — but an
        executor whose workers live in another address space needs to relay
        the destroy signal immediately so the worker can observe it
        (paper §III-B's abort-flag mechanism, carried across processes).
        """
        self._abort_flag_listeners.append(fn)

    # ------------------------------------------------------------------
    # graph construction
    # ------------------------------------------------------------------
    def add_task(self, task: Task, supertask: SuperTask | None = None) -> Task:
        """Register a task; it becomes READY immediately if it has no inputs."""
        self.graph.add_task(task)
        (supertask or self.root).adopt(task)
        self.events.emit("task_spawn", task=task.name,
                         version=task.tags.get("spec_version"),
                         task_kind=task.kind,
                         speculative=task.speculative or None)
        if task.is_ready_to_schedule:
            self._make_ready(task)
        elif task.state is TaskState.CREATED:
            task.mark_blocked()
        return task

    def connect(self, src: Task, src_port: str, dst: Task, dst_port: str) -> None:
        """Add a dataflow edge; delivers retroactively if ``src`` already ran."""
        self.graph.connect(src, src_port, dst, dst_port)
        if src.state is TaskState.DONE and src.outputs is not None:
            if src_port in src.outputs:
                self._deliver(dst, dst_port, src.outputs[src_port])

    def connect_sink(self, src: Task, src_port: str, fn: Callable[[Any], None]) -> None:
        """Route an output to a callback at the graph boundary."""
        self.graph.connect_sink(src, src_port, fn)
        if src.state is TaskState.DONE and src.outputs is not None:
            if src_port in src.outputs:
                fn(src.outputs[src_port])

    def deliver_external(self, task: Task, port: str, value: Any) -> None:
        """Inject a value from outside the graph (I/O arrival)."""
        self._deliver(task, port, value)

    # ------------------------------------------------------------------
    # readiness
    # ------------------------------------------------------------------
    def _deliver(self, task: Task, port: str, value: Any) -> None:
        if task.state in (TaskState.ABORTED, TaskState.DONE, TaskState.RUNNING):
            # Data racing against a rollback or late wiring: drop silently —
            # the replacement task (if any) gets its own edges.
            if task.state is TaskState.ABORTED:
                return
            raise TaskStateError(
                f"delivery to task {task.name!r} in state {task.state}"
            )
        if task.deliver(port, value):
            self._make_ready(task)

    def _queue_for(self, task: Task) -> ReadyQueue:
        if self.local_queue is not None and task.local:
            return self.local_queue
        return self.speculative_queue if task.speculative else self.natural_queue

    def _make_ready(self, task: Task) -> None:
        task.mark_ready(self.now)
        self._queue_for(task).push(task)
        self._note_queue_depth()
        self.events.emit("task_ready", task=task.name,
                         version=task.tags.get("spec_version"))
        for fn in list(self._ready_listeners):
            fn(task)

    # ------------------------------------------------------------------
    # execution protocol (called by executors)
    # ------------------------------------------------------------------
    def begin_task(self, task: Task, *, worker: int | None = None) -> None:
        """Transition a dispatched task to RUNNING.

        Args:
            task: the task an executor took from a ready queue.
            worker: id of the worker slot that will run it, when the
                executor knows (recorded on ``task_dispatch`` so per-worker
                Gantt views work identically for sim and live runs).
        """
        task.mark_running(self.now, worker)
        self._note_queue_depth()
        self.events.emit("task_dispatch", task=task.name,
                         version=task.tags.get("spec_version"), worker=worker)

    def finish_task(
        self,
        task: Task,
        outputs: dict[str, Any] | None = None,
        *,
        precomputed: bool = False,
        worker: int | None = None,
    ) -> dict[str, Any] | None:
        """Complete a RUNNING task: execute, route, notify.

        If the task was abort-flagged while running, its results are
        discarded (by default the function is not even executed — its output
        could never be observed) and the task ends ABORTED. Returns the
        routed outputs, or None when aborted.

        The threaded executor computes task functions outside the runtime
        lock and passes the result via ``outputs`` with ``precomputed=True``;
        the simulated executor lets this method execute the function.
        ``worker`` (optional) tags the ``task_done`` event with the worker
        slot that ran the task, mirroring :meth:`begin_task`.
        """
        if task.abort_requested:
            if precomputed and task.undo is not None and not task.side_effect_free:
                # The threaded executor already ran the function (outside
                # the lock); its side effects must be compensated.
                task.undo(task)
                self.events.emit("undo", task=task.name,
                                 version=task.tags.get("spec_version"))
            task.mark_done(self.now)  # normal end of occupancy...
            task.state = TaskState.ABORTED  # ...but reaped with its content
            self._emit_end("task_abort", task, cause=task.abort_cause,
                           while_running=True)
            return None
        if not precomputed:
            try:
                outputs = task.run()
            except Exception as exc:
                # A failing task poisons its whole dependence cone; surface a
                # contextualised error instead of a bare traceback from deep
                # inside an executor event. The task and its dependents are
                # aborted first so the runtime stays consistent for
                # inspection.
                task.mark_done(self.now)
                task.state = TaskState.ABORTED
                failed_seq = self._emit_end("task_failed", task,
                                            error=repr(exc))
                with self.events.cause(failed_seq):
                    self.abort_dependents([task], include_roots=False)
                raise TaskExecutionError(task.name, exc) from exc
        elif outputs is None:
            outputs = {}
        task.outputs = outputs
        task.mark_done(self.now)
        if self.memory is not None:
            self.memory.allocate(task.name, sizeof_value(outputs), task.speculative)
        self._emit_end("task_done", task, worker=worker)
        self._route_outputs(task, outputs)
        if task.supertask is not None:
            task.supertask.notify_child_complete(task, outputs)
        for hook in list(task.on_complete):
            hook(task, outputs)
        return outputs

    def _emit_end(self, kind: str, task: Task, **data: Any) -> int:
        """Emit the event that ends ``task`` (``task_done`` / ``_abort`` /
        ``_failed``) with the fields the folds read: its kind, whether it
        was speculative and, once it ran, its occupancy (``dur_us`` when
        done, ``ran_us`` when aborted)."""
        if (kind != "task_failed" and task.start_time is not None
                and task.finish_time is not None):
            occupancy = "dur_us" if kind == "task_done" else "ran_us"
            data[occupancy] = task.finish_time - task.start_time
        return self.events.emit(kind, task=task.name,
                                version=task.tags.get("spec_version"),
                                task_kind=task.kind,
                                speculative=task.speculative or None, **data)

    def _route_outputs(self, task: Task, outputs: dict[str, Any]) -> None:
        for edge in self.graph.out_edges(task):
            if edge.src_port in outputs:
                self._deliver(edge.dst, edge.dst_port, outputs[edge.src_port])
        for (port, value) in outputs.items():
            for sink in self.graph.sinks_for(task, port):
                sink(value)

    # ------------------------------------------------------------------
    # aborts (rollback support)
    # ------------------------------------------------------------------
    def abort_task(self, task: Task) -> None:
        """Abort one task, whatever its state (idempotent).

        READY tasks leave their queue; RUNNING tasks are flagged; DONE
        tasks have their results' memory accounting discarded.
        """
        if task.state is TaskState.ABORTED:
            return
        if task.state is TaskState.DONE:
            if task.undo is not None and not task.side_effect_free:
                # User-defined rollback routine (§II extension): compensate
                # the side effects the completed task already performed.
                task.undo(task)
                self.events.emit("undo", task=task.name,
                                 version=task.tags.get("spec_version"))
            if self.memory is not None:
                self.memory.discard(task.name)
            task.state = TaskState.ABORTED
            self._emit_end("task_abort", task, after_done=True)
            return
        was_ready = task.state is TaskState.READY
        reaped = task.request_abort()
        if reaped:
            if was_ready:
                self._queue_for(task).discard_aborted(task)
                self._note_queue_depth()
            self._emit_end("task_abort", task, was_ready=was_ready or None)
            return
        # RUNNING: flagged only; finish_task finalises the abort — remember
        # who ordered the destruction so the eventual task_abort event still
        # points at its destroy signal. Relay the flag to executors whose
        # workers cannot see coordinator memory.
        task.abort_cause = self.events.current_cause()
        self.events.emit("task_abort_flag", task=task.name,
                         version=task.tags.get("spec_version"))
        for fn in list(self._abort_flag_listeners):
            fn(task)

    def abort_dependents(self, roots: Iterable[Task], include_roots: bool = True) -> list[Task]:
        """Propagate a destroy signal down the dependence chain (§III-B).

        Returns the tasks that were aborted (or flagged), in BFS order.
        """
        footprint = self.graph.dependents(roots, include_roots=include_roots)
        for task in footprint:
            self.abort_task(task)
        return footprint

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def ready_counts(self) -> tuple[int, int]:
        """(natural, speculative) ready-queue lengths."""
        return (len(self.natural_queue), len(self.speculative_queue))

    def pending_tasks(self) -> list[Task]:
        """Tasks not yet in a terminal state (diagnostics)."""
        return [
            t for t in self.graph.tasks()
            if t.state not in (TaskState.DONE, TaskState.ABORTED)
        ]

    def stats(self) -> dict[str, int]:
        """Execution counters for reports, folded from the task events
        (a failed body counts as aborted, but never as speculative)."""
        ends = self._ends
        out = {
            "tasks_completed": ends["task_done", False] + ends["task_done", True],
            "tasks_aborted": sum(n for (kind, _), n in ends.items()
                                 if kind != "task_done"),
            "speculative_completed": ends["task_done", True],
            "speculative_aborted": ends["task_abort", True],
            "graph_size": len(self.graph),
        }
        if self.memory is not None:
            out.update(self.memory.summary())
        return out
