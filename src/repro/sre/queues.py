"""Ready queues with the paper's dispatch ordering.

Within one class of work (speculative or natural), the SRE dispatches by
priority: control tasks (value predicting and verification) come first no
matter where they sit in the pipeline, then deeper pipeline stages, with
FCFS breaking ties (paper §III-A). The queue is a lazy-deletion heap so
rollback can remove aborted tasks in O(1).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterator

from repro.sre.task import Task, TaskState

__all__ = ["ReadyQueue"]


class ReadyQueue:
    """Priority queue over READY tasks.

    Ordering key: control tasks first ("highest priority, no matter where
    they are located in the pipeline"), then greater depth, then earlier
    enqueue (FCFS).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[tuple[int, int, int], Task]] = []
        self._enq = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def _key(self, task: Task) -> tuple[int, int, int]:
        return (0 if task.control else 1, -task.depth, next(self._enq))

    def push(self, task: Task) -> None:
        heapq.heappush(self._heap, (self._key(task), task))
        task.in_ready_queue = True
        self._live += 1

    def discard_aborted(self, task: Task) -> None:
        """Account for a task aborted while queued (lazy removal).

        No-op if the task already left the queue: a READY task can be
        popped and parked (a worker's DMA staging queue) before it starts,
        and an abort in that window must not decrement the live count a
        second time — that drove ``len()`` negative.
        """
        if task.in_ready_queue:
            task.in_ready_queue = False
            self._live -= 1

    def extract(self, pred: Callable[[Task], bool]) -> list[Task]:
        """Remove and return the queued tasks matching ``pred``, in
        dispatch order."""
        taken: list[Task] = []
        kept = []
        for entry in sorted(self._heap, key=lambda e: e[0]):
            task = entry[1]
            if task.state is TaskState.READY and pred(task):
                task.in_ready_queue = False
                self._live -= 1
                taken.append(task)
            else:
                kept.append(entry)
        self._heap = kept  # a sorted list is a heap
        return taken

    def _skim(self) -> None:
        while self._heap and self._heap[0][1].state is not TaskState.READY:
            heapq.heappop(self._heap)

    def peek(self) -> Task | None:
        """Next dispatchable task without removing it."""
        self._skim()
        return self._heap[0][1] if self._heap else None

    def pop(self) -> Task | None:
        """Remove and return the next dispatchable task (None if empty)."""
        self._skim()
        if not self._heap:
            return None
        _, task = heapq.heappop(self._heap)
        task.in_ready_queue = False
        self._live -= 1
        return task

    def snapshot(self) -> Iterator[Task]:
        """Live tasks in arbitrary order (diagnostics only)."""
        return (t for _, t in self._heap if t.state is TaskState.READY)
