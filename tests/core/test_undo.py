"""Tests for user-defined rollback routines (the paper's §II extension)."""

import pytest

from repro.core.rollback import RollbackEngine
from repro.core.spec import SpecVersion
from repro.errors import TaskStateError
from repro.sre.task import Task, TaskState

from tests.conftest import event_kinds, make_harness


def test_side_effecting_speculative_task_requires_undo():
    with pytest.raises(TaskStateError):
        Task("bad", lambda: 1, speculative=True, side_effect_free=False)
    # with an undo routine it is allowed
    Task("ok", lambda: 1, speculative=True, side_effect_free=False,
         undo=lambda t: None)


def test_undo_called_on_rollback_of_completed_task():
    h = make_harness()
    store: list[int] = []

    def effectful():
        store.append(42)
        return {"out": 42}

    def compensate(task):
        store.remove(42)

    version = SpecVersion(1, 0, 0.0)
    t = Task("writer", effectful, kind="store", speculative=True,
             side_effect_free=False, undo=compensate)
    version.register(t)
    h.runtime.add_task(t)
    h.run()
    assert store == [42]
    RollbackEngine(h.runtime).rollback(version)
    assert store == []
    assert t.state is TaskState.ABORTED
    assert event_kinds(h.runtime).count("undo") == 1


def test_undo_not_called_for_unlaunched_task():
    h = make_harness()
    called = []
    version = SpecVersion(1, 0, 0.0)
    t = Task("writer", lambda x: x, inputs=("x",), speculative=True,
             side_effect_free=False, undo=lambda task: called.append(task))
    version.register(t)
    h.runtime.add_task(t)  # blocked: never runs
    RollbackEngine(h.runtime).rollback(version)
    assert called == []  # nothing happened, nothing to compensate
    assert t.state is TaskState.ABORTED


def test_undo_not_called_for_pure_tasks():
    h = make_harness()
    called = []
    version = SpecVersion(1, 0, 0.0)
    t = Task("pure", lambda: {"out": 1}, speculative=True,
             undo=lambda task: called.append(task))
    version.register(t)
    h.runtime.add_task(t)
    h.run()
    RollbackEngine(h.runtime).rollback(version)
    assert called == []  # side_effect_free: no compensation needed


def test_undo_called_when_threaded_executor_discards():
    """Threaded executors run the function before noticing the abort flag;
    finish_task must compensate."""
    from repro.sre.runtime import Runtime
    rt = Runtime()  # no executor: we drive the life cycle by hand
    store = []
    t = Task("writer", lambda: store.append(1) or {"out": 1},
             kind="store", speculative=True, side_effect_free=False,
             undo=lambda task: store.pop())
    rt.add_task(t)
    rt.begin_task(t)
    t.abort_requested = True
    # simulate the threaded path: fn already ran, results precomputed
    store.append(1)
    out = rt.finish_task(t, {"out": 1}, precomputed=True)
    assert out is None
    assert store == []
    assert t.state is TaskState.ABORTED
