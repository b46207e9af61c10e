"""Unit tests for the rollback engine."""

import pytest

from repro.core.rollback import RollbackEngine
from repro.core.spec import SpecVersion
from repro.core.wait import WaitBuffer
from repro.errors import RollbackError
from repro.sre.task import Task, TaskState

from tests.conftest import make_harness


def _version_with_chain(h, vid=1):
    """A version owning a -> b where b was spawned dynamically (unregistered)."""
    version = SpecVersion(vid, created_index=1, created_at=0.0)
    a = Task("a", lambda: {"out": 1}, speculative=True)
    b = Task("b", lambda x: {"out": x}, inputs=("x",), speculative=True)
    version.register(a)
    h.runtime.add_task(a)
    h.runtime.add_task(b)
    h.runtime.connect(a, "out", b, "x")
    return version, a, b


def test_rollback_aborts_registered_and_dependents():
    h = make_harness()
    version, a, b = _version_with_chain(h)
    engine = RollbackEngine(h.runtime)
    footprint = engine.rollback(version)
    assert {t.name for t in footprint} == {"a", "b"}
    # `a` was already dispatched (it is RUNNING): it is abort-flagged and
    # reaped at completion; `b` was never launched and aborts instantly.
    assert a.abort_requested
    assert b.state is TaskState.ABORTED
    h.run()
    assert a.state is TaskState.ABORTED
    assert not version.active
    assert engine.rollbacks == 1
    assert engine.tasks_destroyed == 2


def test_rollback_discards_buffer_entries():
    h = make_harness()
    version, a, b = _version_with_chain(h, vid=7)
    buf = WaitBuffer()
    buf.deposit(7, "k", "v", 0.0)
    engine = RollbackEngine(h.runtime, buf)
    engine.rollback(version)
    assert buf.pending(7) == 0
    assert engine.buffer_entries_discarded == 1


def test_rollback_idempotent_per_version():
    h = make_harness()
    version, *_ = _version_with_chain(h)
    engine = RollbackEngine(h.runtime)
    engine.rollback(version)
    assert engine.rollback(version) == []
    assert engine.rollbacks == 1


def test_committed_version_cannot_roll_back():
    h = make_harness()
    version, *_ = _version_with_chain(h)
    version.committed = True
    engine = RollbackEngine(h.runtime)
    with pytest.raises(RollbackError):
        engine.rollback(version)


def test_rollback_after_tasks_completed_discards_results():
    h = make_harness()
    version, a, b = _version_with_chain(h)
    h.run()  # both tasks execute
    assert b.state is TaskState.DONE
    engine = RollbackEngine(h.runtime)
    engine.rollback(version)
    assert a.state is TaskState.ABORTED
    assert b.state is TaskState.ABORTED
    assert h.runtime.memory.speculative_wasted > 0


def test_rollback_emits_trace():
    h = make_harness()
    version, *_ = _version_with_chain(h, vid=3)
    RollbackEngine(h.runtime).rollback(version)
    rec = [e for e in h.runtime.events.events()
           if e["kind"] == "rollback_done"]
    assert len(rec) == 1
    assert rec[0]["version"] == 3
    assert rec[0]["tasks_destroyed"] == 2


# ----------------------------------------------------------------------
# spec_rollback_cost histogram (double-entry vs engine counters)
# ----------------------------------------------------------------------
def _cost_series(h, measure):
    child = h.labels(measure=measure)
    return child.count(), child.sum()


def test_rollback_cost_histogram_double_enters_engine_counters():
    h = make_harness()
    engine = RollbackEngine(h.runtime)
    for vid in (1, 2):
        version = SpecVersion(vid, created_index=vid, created_at=0.0)
        a = Task(f"a{vid}", lambda: {"out": 1}, speculative=True)
        b = Task(f"b{vid}", lambda x: {"out": x}, inputs=("x",),
                 speculative=True)
        version.register(a)
        h.runtime.add_task(a)
        h.runtime.add_task(b)
        h.runtime.connect(a, "out", b, "x")
        h.run()
        engine.rollback(version)
    hist = h.runtime.metrics.get("spec_rollback_cost")
    n_tasks, sum_tasks = _cost_series(hist, "tasks")
    n_wasted, sum_wasted = _cost_series(hist, "wasted_us")
    # one observation per rollback on each measure
    assert n_tasks == n_wasted == engine.rollbacks == 2
    # and the sums are the engine's own running totals
    assert sum_tasks == engine.tasks_destroyed == 4
    assert sum_wasted == pytest.approx(engine.wasted_task_us)
    assert engine.wasted_task_us > 0  # tasks had run before the signal


def test_rollback_cost_counts_unstarted_footprint_as_zero_waste():
    h = make_harness()
    version, *_ = _version_with_chain(h)
    engine = RollbackEngine(h.runtime)
    engine.rollback(version)  # nothing has executed yet: a is RUNNING at 0
    hist = h.runtime.metrics.get("spec_rollback_cost")
    assert _cost_series(hist, "tasks") == (1, 2.0)
    n, total = _cost_series(hist, "wasted_us")
    assert n == 1 and total == 0.0


def test_rollback_done_event_mirrors_histogram_entry():
    h = make_harness()
    version, *_ = _version_with_chain(h, vid=9)
    h.run()
    engine = RollbackEngine(h.runtime)
    engine.rollback(version)
    done = [e for e in h.runtime.events.events()
            if e["kind"] == "rollback_done"][-1]
    assert done["version"] == 9
    assert done["tasks_destroyed"] == engine.tasks_destroyed
    assert done["wasted_us"] == pytest.approx(engine.wasted_task_us)
