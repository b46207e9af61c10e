"""Unit tests for the runtime core: routing, readiness, aborts."""

import pytest

from repro.errors import TaskStateError
from repro.sre.runtime import Runtime
from tests.conftest import event_kinds
from repro.sre.task import Task, TaskState


def _rt():
    return Runtime()


def _finish(rt, task):
    rt.begin_task(task)
    return rt.finish_task(task)


def test_source_task_becomes_ready_on_add():
    rt = _rt()
    t = rt.add_task(Task("src", lambda: {"out": 1}))
    assert t.state is TaskState.READY
    assert len(rt.natural_queue) == 1


def test_task_with_inputs_blocks():
    rt = _rt()
    t = rt.add_task(Task("t", lambda a: a, inputs=("a",)))
    assert t.state is TaskState.BLOCKED


def test_outputs_route_along_edges():
    rt = _rt()
    a = rt.add_task(Task("a", lambda: {"out": 5}))
    b = rt.add_task(Task("b", lambda x: {"out": x * 2}, inputs=("x",)))
    rt.connect(a, "out", b, "x")
    _finish(rt, a)
    assert b.state is TaskState.READY
    assert _finish(rt, b) == {"out": 10}


def test_retroactive_connect_delivers_buffered_output():
    rt = _rt()
    a = rt.add_task(Task("a", lambda: {"out": 3}))
    _finish(rt, a)
    b = rt.add_task(Task("b", lambda x: x, inputs=("x",)))
    rt.connect(a, "out", b, "x")  # a already DONE
    assert b.state is TaskState.READY
    assert b.inputs["x"] == 3


def test_retroactive_sink_fires():
    rt = _rt()
    a = rt.add_task(Task("a", lambda: {"out": 3}))
    _finish(rt, a)
    seen = []
    rt.connect_sink(a, "out", seen.append)
    assert seen == [3]


def test_sink_receives_output():
    rt = _rt()
    a = rt.add_task(Task("a", lambda: {"out": "payload"}))
    seen = []
    rt.connect_sink(a, "out", seen.append)
    _finish(rt, a)
    assert seen == ["payload"]


def test_speculative_tasks_use_their_own_queue():
    rt = _rt()
    rt.add_task(Task("n", lambda: 1))
    rt.add_task(Task("s", lambda: 1, speculative=True))
    assert rt.ready_counts() == (1, 1)


def test_on_complete_hook_runs_after_routing():
    rt = _rt()
    a = rt.add_task(Task("a", lambda: {"out": 1}))
    b = rt.add_task(Task("b", lambda x: x, inputs=("x",)))
    rt.connect(a, "out", b, "x")
    states = []
    a.on_complete.append(lambda t, outs: states.append(b.state))
    _finish(rt, a)
    assert states == [TaskState.READY]


def test_hooks_can_add_tasks_dynamically():
    rt = _rt()
    a = rt.add_task(Task("a", lambda: {"out": 1}))

    def spawn(task, outs):
        rt.add_task(Task("child", lambda: {"out": 2}))

    a.on_complete.append(spawn)
    _finish(rt, a)
    assert rt.graph.get("child") is not None
    assert rt.graph.get("child").state is TaskState.READY


def test_abort_ready_task_leaves_queue():
    rt = _rt()
    t = rt.add_task(Task("t", lambda: 1))
    rt.abort_task(t)
    assert t.state is TaskState.ABORTED
    assert len(rt.natural_queue) == 0
    assert rt.stats()["tasks_aborted"] == 1


def test_abort_running_task_discards_results():
    rt = _rt()
    ran = []
    t = rt.add_task(Task("t", lambda: ran.append(1) or {"out": 1}))
    b = rt.add_task(Task("b", lambda x: x, inputs=("x",)))
    rt.connect(t, "out", b, "x")
    rt.begin_task(t)
    rt.abort_task(t)  # flag only
    assert t.state is TaskState.RUNNING
    result = rt.finish_task(t)
    assert result is None
    assert t.state is TaskState.ABORTED
    assert ran == []  # function never executed
    assert b.state is TaskState.BLOCKED  # nothing routed


def test_abort_done_task_discards_memory_accounting():
    rt = _rt()
    t = rt.add_task(Task("t", lambda: {"out": b"x" * 100}, speculative=True))
    _finish(rt, t)
    live_before = rt.memory.live_bytes
    rt.abort_task(t)
    assert rt.memory.live_bytes < live_before
    assert rt.memory.speculative_wasted > 0


def test_abort_is_idempotent():
    rt = _rt()
    t = rt.add_task(Task("t", lambda: 1))
    rt.abort_task(t)
    rt.abort_task(t)
    assert rt.stats()["tasks_aborted"] == 1


def test_abort_dependents_propagates():
    rt = _rt()
    a = rt.add_task(Task("a", lambda: {"out": 1}))
    b = rt.add_task(Task("b", lambda x: {"out": x}, inputs=("x",)))
    c = rt.add_task(Task("c", lambda x: {"out": x}, inputs=("x",)))
    rt.connect(a, "out", b, "x")
    rt.connect(b, "out", c, "x")
    footprint = rt.abort_dependents([a])
    assert [t.name for t in footprint] == ["a", "b", "c"]
    assert all(t.state is TaskState.ABORTED for t in (a, b, c))


def test_delivery_to_aborted_task_is_dropped():
    rt = _rt()
    a = rt.add_task(Task("a", lambda: {"out": 1}))
    b = rt.add_task(Task("b", lambda x: x, inputs=("x",)))
    rt.connect(a, "out", b, "x")
    rt.abort_task(b)
    _finish(rt, a)  # must not raise


def test_delivery_to_done_task_raises():
    rt = _rt()
    t = rt.add_task(Task("t", lambda: 1))
    _finish(rt, t)
    with pytest.raises(TaskStateError):
        rt.deliver_external(t, "x", 1)


def test_supertask_notification_on_completion():
    rt = _rt()
    seen = []
    rt.root.on_child_complete(lambda t, outs: seen.append(t.name))
    t = rt.add_task(Task("t", lambda: {"out": 1}))
    _finish(rt, t)
    assert seen == ["t"]


def test_stats_counters():
    rt = _rt()
    t = rt.add_task(Task("t", lambda: 1, speculative=True))
    _finish(rt, t)
    s = rt.stats()
    assert s["tasks_completed"] == 1
    assert s["speculative_completed"] == 1
    assert s["graph_size"] == 1


def test_precomputed_finish_skips_fn():
    rt = _rt()
    ran = []
    t = rt.add_task(Task("t", lambda: ran.append(1) or {"out": 1}))
    rt.begin_task(t)
    out = rt.finish_task(t, {"out": 42}, precomputed=True)
    assert out == {"out": 42}
    assert ran == []


def test_trace_records_lifecycle():
    rt = _rt()
    t = rt.add_task(Task("t", lambda: 1))
    _finish(rt, t)
    kinds = event_kinds(rt)
    assert kinds.count("task_ready") == 1
    assert kinds.count("task_dispatch") == 1
    assert kinds.count("task_done") == 1


def test_failing_task_raises_contextual_error():
    from repro.errors import TaskExecutionError
    rt = _rt()

    def boom():
        raise ValueError("kapow")

    t = rt.add_task(Task("boom", boom))
    child = rt.add_task(Task("child", lambda x: x, inputs=("x",)))
    rt.connect(t, "out", child, "x")
    rt.begin_task(t)
    with pytest.raises(TaskExecutionError) as exc_info:
        rt.finish_task(t)
    assert exc_info.value.task_name == "boom"
    assert isinstance(exc_info.value.original, ValueError)
    # the failing cone is aborted, the runtime stays consistent
    assert t.state is TaskState.ABORTED
    assert child.state is TaskState.ABORTED
    assert event_kinds(rt).count("task_failed") == 1
