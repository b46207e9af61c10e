"""Tasks — the coarse-grain unit of computation.

A :class:`Task` declares named input ports, a pure function over them, and
metadata the scheduler and cost models consume (kind, pipeline depth,
speculative/control flags, cost hints). Ports follow dataflow
single-assignment: each port receives exactly one value, and a task instance
runs exactly once. Re-execution after rollback therefore always means *new*
task instances — exactly the paper's model, where mis-speculation destroys
the dependent chain and the recompute path spawns fresh tasks.
"""

from __future__ import annotations

import enum
import itertools
import pickle
from typing import Any, Callable, Iterable, Mapping

from repro.errors import TaskStateError
from repro.sre import shm

__all__ = ["Task", "TaskState", "PAYLOAD_PROTOCOL"]

_task_seq = itertools.count()

#: Pickle protocol for task payloads shipped across address spaces.
PAYLOAD_PROTOCOL = pickle.HIGHEST_PROTOCOL


def _normalise_outputs(result: Any) -> dict[str, Any]:
    """Normalise a task function's return value to an output-port mapping."""
    if result is None:
        return {}
    if isinstance(result, dict):
        return result
    return {"out": result}


class TaskState(enum.Enum):
    """Task life cycle.

    ``CREATED`` → (added to a runtime) ``BLOCKED`` → (all inputs present)
    ``READY`` → (dispatched) ``RUNNING`` → ``DONE``. Any pre-terminal state
    may transition to ``ABORTED`` when a rollback destroys the task; a
    RUNNING task is merely *flagged* and reaped by its executor on
    completion, since launched work cannot be recalled (paper §III-B).
    """

    CREATED = "created"
    BLOCKED = "blocked"
    READY = "ready"
    RUNNING = "running"
    DONE = "done"
    ABORTED = "aborted"


_PRE_RUN_STATES = (TaskState.CREATED, TaskState.BLOCKED, TaskState.READY)


class Task:
    """A side-effect-free unit of computation with named input ports.

    Args:
        name: unique human-readable identifier (``kind:detail`` by convention).
        fn: callable invoked with one keyword argument per input port; returns
            either a mapping of output-port name to value, or a single value
            (exposed as port ``"out"``), or ``None`` (no outputs).
        inputs: input port names. A task with no inputs is a source and
            becomes READY as soon as it is added to a runtime.
        kind: cost-model category (``"count"``, ``"reduce"``, ``"encode"``...).
        depth: pipeline depth; the scheduler favours deeper tasks.
        speculative: True for tasks operating on speculated data.
        control: True for predict/verify/check tasks, which the scheduler
            always dispatches first regardless of depth (paper §III-A).
        local: True for a task on a serial chain whose body costs less
            than a trip to a worker (reduce, offset and tree links). A live
            executor that supports it runs the body on its coordinator the
            moment the task is ready, instead of queueing it for a worker;
            the simulated and threaded executors ignore the flag. Control
            tasks are local by definition (see :attr:`local`).
        side_effect_free: tasks with side effects must never be speculative —
            *unless* they provide an ``undo`` routine (the paper's §II
            extension: "our framework can be extended to support
            user-defined rollback routines, to enable more tasks to execute
            speculatively").
        undo: compensation callback invoked (with the task) when a
            side-effecting task that already ran is destroyed by a rollback.
        cost_hint: free-form numbers for the platform cost model (e.g.
            ``{"bytes": 4096}``).
        tags: free-form labels (speculation version, block id, ...).
    """

    __slots__ = (
        "name",
        "fn",
        "undo",
        "kind",
        "depth",
        "speculative",
        "control",
        "_local",
        "side_effect_free",
        "cost_hint",
        "tags",
        "seq",
        "state",
        "in_ready_queue",
        "abort_requested",
        "inputs",
        "_pending",
        "outputs",
        "on_complete",
        "on_abort",
        "supertask",
        "ready_time",
        "start_time",
        "finish_time",
        "worker",
        "abort_cause",
        "_payload_blob",
        "_payload_refs",
    )

    def __init__(
        self,
        name: str,
        fn: Callable[..., Any] | None,
        inputs: Iterable[str] = (),
        *,
        kind: str = "task",
        depth: int = 0,
        speculative: bool = False,
        control: bool = False,
        local: bool = False,
        side_effect_free: bool = True,
        undo: Callable[["Task"], None] | None = None,
        cost_hint: Mapping[str, float] | None = None,
        tags: Mapping[str, Any] | None = None,
    ) -> None:
        if speculative and not side_effect_free and undo is None:
            raise TaskStateError(
                f"task {name!r}: tasks with side effects may only run "
                "speculatively if they provide an undo routine"
            )
        self.name = name
        self.fn = fn
        self.undo = undo
        self.kind = kind
        self.depth = depth
        self.speculative = speculative
        self.control = control
        self._local = local
        self.side_effect_free = side_effect_free
        self.cost_hint = dict(cost_hint or {})
        self.tags = dict(tags or {})
        self.seq = next(_task_seq)
        self.state = TaskState.CREATED
        #: maintained by ReadyQueue: True only while the task sits in a
        #: ready queue. Distinguishes "READY and queued" from "READY but
        #: already popped" (e.g. parked in a worker's DMA queue), so abort
        #: accounting never decrements a queue the task has left.
        self.in_ready_queue = False
        self.abort_requested = False
        self.inputs: dict[str, Any] = {}
        self._pending = set(inputs)
        if len(self._pending) != len(tuple(inputs)):
            raise TaskStateError(f"task {name!r}: duplicate input port names")
        self.outputs: dict[str, Any] | None = None
        self.on_complete: list[Callable[["Task", dict[str, Any]], None]] = []
        self.on_abort: list[Callable[["Task"], None]] = []
        self.supertask = None  # set by SuperTask.adopt
        self.ready_time: float | None = None
        self.start_time: float | None = None
        self.finish_time: float | None = None
        #: the worker seat that ran it, when known (-1: the coordinator)
        self.worker: int | None = None
        #: event seq of the destroy signal that flagged this task while it
        #: was RUNNING; the reap path stamps it as the abort event's cause.
        self.abort_cause: int | None = None
        self._payload_blob: bytes | None = None
        self._payload_refs: tuple[shm.BlockRef, ...] | None = None

    @property
    def local(self) -> bool:
        """True when a live executor should run this task on its
        coordinator: it was built ``local``, or it is a control task."""
        return self._local or self.control

    # ------------------------------------------------------------------
    # input delivery
    # ------------------------------------------------------------------
    @property
    def missing_inputs(self) -> frozenset[str]:
        """Ports still waiting for a value."""
        return frozenset(self._pending)

    def deliver(self, port: str, value: Any) -> bool:
        """Deliver a value to an input port.

        Returns True when this delivery completed the input set (the task is
        now eligible for the ready queue). Raises on unknown ports, double
        delivery, or delivery after launch.
        """
        if self.state not in (TaskState.CREATED, TaskState.BLOCKED):
            raise TaskStateError(
                f"task {self.name!r}: cannot deliver to port {port!r} in state {self.state}"
            )
        if port in self.inputs:
            raise TaskStateError(f"task {self.name!r}: port {port!r} already assigned")
        if port not in self._pending:
            raise TaskStateError(f"task {self.name!r}: unknown input port {port!r}")
        self._pending.discard(port)
        self.inputs[port] = value
        return not self._pending

    @property
    def is_ready_to_schedule(self) -> bool:
        """All inputs present and not yet launched."""
        return not self._pending and self.state in (TaskState.CREATED, TaskState.BLOCKED)

    # ------------------------------------------------------------------
    # life cycle (driven by the runtime/executor)
    # ------------------------------------------------------------------
    def _transition(self, target: TaskState, allowed: tuple[TaskState, ...]) -> None:
        if self.state not in allowed:
            raise TaskStateError(
                f"task {self.name!r}: illegal transition {self.state} -> {target}"
            )
        self.state = target

    def mark_blocked(self) -> None:
        self._transition(TaskState.BLOCKED, (TaskState.CREATED,))

    def mark_ready(self, now: float) -> None:
        self._transition(TaskState.READY, (TaskState.CREATED, TaskState.BLOCKED))
        self.ready_time = now

    def mark_running(self, now: float, worker: int | None = None) -> None:
        self._transition(TaskState.RUNNING, (TaskState.READY,))
        self.start_time = now
        self.worker = worker

    def mark_done(self, now: float) -> None:
        self._transition(TaskState.DONE, (TaskState.RUNNING,))
        self.finish_time = now

    def mark_aborted(self) -> None:
        """Terminal abort for a task that has not finished running."""
        self._transition(TaskState.ABORTED, _PRE_RUN_STATES + (TaskState.RUNNING,))

    def request_abort(self) -> bool:
        """Flag the task for abortion.

        Returns True if the task can be reaped immediately (it was not
        running); a RUNNING task is only flagged — its executor discards the
        results on completion, mirroring the paper's abort-flag mechanism.
        """
        self.abort_requested = True
        if self.state in _PRE_RUN_STATES:
            self.mark_aborted()
            return True
        return False

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> dict[str, Any]:
        """Execute the task function and normalise its outputs.

        The executor is responsible for state transitions and routing; this
        method only computes.
        """
        if self._pending:
            raise TaskStateError(
                f"task {self.name!r}: run with missing inputs {sorted(self._pending)}"
            )
        if self.fn is None:
            return {}
        # Shared-memory refs in the payload (block transport) resolve to
        # their data in *this* address space; a ref-free payload passes
        # through untouched (swap_in returns the original objects).
        fn, inputs = shm.swap_in((self.fn, self.inputs))
        return _normalise_outputs(fn(**inputs))

    # ------------------------------------------------------------------
    # remote execution (process back-end)
    # ------------------------------------------------------------------
    def serialize_payload(self) -> bytes:
        """Pickle ``(fn, inputs)`` — everything another address space needs
        to execute this task body.

        The runtime half of the task (state, hooks, supertask, tags) never
        crosses the boundary; only the pure function and its argument values
        do, exactly as the Cell back-end DMAs a kernel's working set into an
        SPE local store.

        The blob is cached: dispatch paths measure the footprint and then
        ship the same bytes without pickling twice. The cache is safe
        because ports are single-assignment and delivery after launch
        raises — once serialization is possible the inputs are frozen.
        The payload's shared-memory refs (:meth:`payload_refs`) are found
        here too, once, for the budget check, the shipping tallies and a
        remote pool's block push.

        Raises:
            TaskStateError: the payload cannot cross a process boundary
                (closures, lambdas, open handles, ...). Executors treat this
                as "run it on the coordinator instead".
        """
        if self._payload_blob is not None:
            return self._payload_blob
        try:
            blob = pickle.dumps((self.fn, self.inputs), protocol=PAYLOAD_PROTOCOL)
        except Exception as exc:
            raise TaskStateError(
                f"task {self.name!r}: payload is not picklable ({exc!r})"
            ) from exc
        self._payload_blob = blob
        self._payload_refs = tuple(shm.iter_refs((self.fn, self.inputs)))
        return blob

    def drop_payload_cache(self) -> None:
        """Free the cached payload blob and refs (called after the bytes
        shipped)."""
        self._payload_blob = None
        self._payload_refs = None

    def payload_refs(self) -> tuple[shm.BlockRef, ...]:
        """Every shared-memory ref the payload carries (cached with the
        blob; walked afresh only when no blob is cached)."""
        if self._payload_refs is None:
            return tuple(shm.iter_refs((self.fn, self.inputs)))
        return self._payload_refs

    def serialized_footprint(self) -> int:
        """Bytes this task's payload occupies on the wire to a worker."""
        return len(self.serialize_payload())

    def referenced_bytes(self) -> int:
        """Bytes of shared-memory blocks this task's payload references."""
        return shm.referenced_bytes(self.payload_refs())

    def payload_footprint(self) -> int:
        """Total working-set bytes a worker needs for this task.

        Wire bytes (the cached pickled payload) *plus* the bytes of every
        shared-memory block the payload references: with
        :class:`~repro.sre.shm.BlockRef` handles in play the wire carries
        only ~150 B per block, but the worker still maps the block itself,
        so the budget — the spirit of the Cell's 32 KB local-store cap
        (:class:`~repro.platforms.localstore.LocalStore`) — must count the
        referenced data, not the handle.
        """
        return self.serialized_footprint() + self.referenced_bytes()

    @staticmethod
    def run_payload(blob: bytes) -> dict[str, Any]:
        """Execute a payload produced by :meth:`serialize_payload`.

        Runs in the worker process; shared-memory refs are swapped back
        into data (attaching segments lazily) before the call. Returns
        normalised outputs. Raises :class:`~repro.errors.SegmentGone` if
        a referenced segment was reclaimed before the swap.
        """
        fn, inputs = shm.swap_in(pickle.loads(blob))
        if fn is None:
            return {}
        return _normalise_outputs(fn(**inputs))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        spec = " spec" if self.speculative else ""
        return f"<Task {self.name} {self.kind} d{self.depth} {self.state.value}{spec}>"
