"""Rollback: destroy-signal propagation over a speculation version.

When speculation fails (§III-B): all data produced from the speculation
point onward is discarded; ready tasks are deleted along with their result
memory; launched tasks are abort-flagged and reclaimed with their content
when they complete. Side-effect freedom guarantees the dependence structure
is stable, so exactly the right tasks are destroyed.

The engine starts from the version's registered tasks and propagates through
the DFG's dependents — both mechanisms the paper describes (explicit task
bookkeeping *and* dependence-chain traversal) act together, so dynamically
added consumers of speculative data are destroyed even if the client forgot
to register them.

Every rollback emits one ``destroy_signal`` event and runs its fan-out
(aborts, resource releases, buffer discards) inside that event's cause
scope, so ``repro explain`` can reconstruct the cascade. Its cost (tasks
destroyed, entries discarded, wasted occupancy) is written once, as the
``rollback_done`` event; the engine's tallies and the
``spec_rollback_cost`` histogram are folds over it.
"""

from __future__ import annotations

from repro.core.spec import SpecVersion
from repro.core.wait import WaitBuffer
from repro.errors import RollbackError
from repro.sre.runtime import Runtime
from repro.sre.task import Task

__all__ = ["RollbackEngine"]


class RollbackEngine:
    """Destroys the footprint of a failed speculation version.

    Its tallies fold only the ``rollback_done`` events stamped with its
    ``domain`` (the spec's name), so domains can share one runtime.
    """

    def __init__(self, runtime: Runtime, barrier: WaitBuffer | None = None,
                 domain: str | None = None) -> None:
        self.runtime = runtime
        self.barrier = barrier
        self.domain = domain
        self.rollbacks = 0
        self.tasks_destroyed = 0
        self.buffer_entries_discarded = 0
        #: occupancy (µs on the executor clock) sunk into tasks that had
        #: started before the destroy signal reached them.
        self.wasted_task_us = 0.0
        cost = runtime.metrics.histogram(
            "spec_rollback_cost",
            "per-rollback cost: measure=tasks (footprint size) and "
            "measure=wasted_us (occupancy sunk into started tasks)",
            labelnames=("measure",),
            buckets=(1, 2, 5, 10, 20, 50, 100, 1e3, 1e4, 1e5, 1e6, 1e7))
        cost_tasks = cost.labels(measure="tasks")
        cost_wasted = cost.labels(measure="wasted_us")

        def done(event: dict) -> None:
            if event.get("domain") != domain:
                return
            self.rollbacks += 1
            self.tasks_destroyed += event["tasks_destroyed"]
            self.buffer_entries_discarded += event["buffer_discarded"]
            self.wasted_task_us += event["wasted_us"]
            cost_tasks.observe(event["tasks_destroyed"])
            cost_wasted.observe(event["wasted_us"])

        runtime.events.fold("rollback_done", done)

    def rollback(self, version: SpecVersion) -> list[Task]:
        """Deactivate ``version`` and destroy its tasks and buffered data.

        Returns the aborted footprint in propagation order. Idempotent per
        version; committing a rolled-back version is impossible because the
        manager checks ``version.active``.
        """
        if version.committed:
            raise RollbackError(f"cannot roll back committed version v{version.vid}")
        if not version.active:
            return []
        version.active = False
        events = self.runtime.events
        destroy_seq = events.emit(
            "destroy_signal", version=version.vid,
            created_index=version.created_index)
        with events.cause(destroy_seq):
            footprint = self.runtime.abort_dependents(version.tasks, include_roots=True)
            # Resources the version pinned (shared-memory block refs, ...) go
            # with the footprint: a mis-speculation must not hold segments.
            version.release_resources("rollback")
            discarded = (self.barrier.discard(version.vid)
                         if self.barrier is not None else 0)
        now = self.runtime.now
        wasted = 0.0
        for task in footprint:
            if task.start_time is not None:
                end = task.finish_time if task.finish_time is not None else now
                wasted += max(0.0, end - task.start_time)
        events.emit(
            "rollback_done", version=version.vid, cause=destroy_seq,
            domain=self.domain, tasks_destroyed=len(footprint),
            buffer_discarded=discarded, wasted_us=wasted,
            lifetime_us=now - version.created_at)
        return footprint
