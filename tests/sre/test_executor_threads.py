"""Unit tests for the threaded executor (real threads, wall clock)."""

import threading
import time

import pytest

from repro.errors import SchedulingError
from repro.sre.executor_threads import ThreadedExecutor
from repro.sre.runtime import Runtime
from repro.sre.task import Task, TaskState

pytestmark = pytest.mark.threaded


def test_runs_all_tasks():
    rt = Runtime()
    ex = ThreadedExecutor(rt, workers=2)
    results = []
    lock = threading.Lock()

    def work(i):
        with lock:
            results.append(i)
        return {"out": i}

    for i in range(10):
        rt.add_task(Task(f"t{i}", lambda i=i: work(i)))
    ex.run(timeout=10.0)
    assert sorted(results) == list(range(10))


def test_dataflow_chain_executes_in_order():
    rt = Runtime()
    ex = ThreadedExecutor(rt, workers=3)
    a = rt.add_task(Task("a", lambda: {"out": 5}))
    b = rt.add_task(Task("b", lambda x: {"out": x * 2}, inputs=("x",)))
    rt.connect(a, "out", b, "x")
    ex.run(timeout=10.0)
    assert b.outputs == {"out": 10}


def test_external_delivery_while_running():
    rt = Runtime()
    ex = ThreadedExecutor(rt, workers=2)
    t = rt.add_task(Task("t", lambda x: {"out": x + 1}, inputs=("x",)))
    ex.start()
    ex.deliver(t, "x", 41)
    ex.close_input()
    assert ex.wait_idle(timeout=10.0)
    ex.shutdown()
    assert t.outputs == {"out": 42}


def test_wait_idle_times_out_when_input_open():
    rt = Runtime()
    ex = ThreadedExecutor(rt, workers=1)
    ex.start()
    assert ex.wait_idle(timeout=0.2) is False  # input never closed
    ex.close_input()
    assert ex.wait_idle(timeout=5.0)
    ex.shutdown()


def test_deliver_after_close_input_raises():
    """Post-close delivery could race wait_idle into declaring the run
    drained while work is still arriving — it must be rejected loudly."""
    rt = Runtime()
    ex = ThreadedExecutor(rt, workers=1)
    t = rt.add_task(Task("t", lambda x: {"out": x + 1}, inputs=("x",)))
    ex.start()
    ex.close_input()
    with pytest.raises(SchedulingError):
        ex.deliver(t, "x", 41)
    assert ex.wait_idle(timeout=5.0)
    ex.shutdown()
    assert t.state is TaskState.BLOCKED  # the late input never landed


def test_task_failure_reaped_and_reraised_from_run():
    rt = Runtime()
    ex = ThreadedExecutor(rt, workers=2)

    def boom():
        raise ValueError("bad kernel")

    bad = rt.add_task(Task("bad", boom))
    dep = rt.add_task(Task("dep", lambda x: {"out": x}, inputs=("x",)))
    rt.connect(bad, "out", dep, "x")
    from repro.errors import TaskExecutionError
    with pytest.raises(TaskExecutionError, match="bad"):
        ex.run(timeout=10.0)
    assert bad.state is TaskState.ABORTED
    assert dep.state is TaskState.ABORTED
    assert len(ex.errors) == 1
    # the failure is an event, and the dependents abort in its cause scope
    events = rt.events.events()
    failed = [e for e in events if e["kind"] == "task_failed"]
    assert [e["task"] for e in failed] == ["bad"]
    dep_abort = next(e for e in events
                     if e["kind"] == "task_abort" and e["task"] == "dep")
    assert dep_abort["cause"] == failed[0]["seq"]


def test_double_start_rejected():
    rt = Runtime()
    ex = ThreadedExecutor(rt, workers=1)
    ex.start()
    try:
        with pytest.raises(SchedulingError):
            ex.start()
    finally:
        ex.close_input()
        ex.shutdown()


def test_workers_must_be_positive():
    with pytest.raises(SchedulingError):
        ThreadedExecutor(Runtime(), workers=0)


def test_abort_flagged_task_results_discarded():
    rt = Runtime()
    ex = ThreadedExecutor(rt, workers=1)
    gate = threading.Event()
    released = threading.Event()

    def slow():
        gate.set()
        released.wait(5.0)
        return {"out": 1}

    t = rt.add_task(Task("slow", slow))
    sink_seen = []
    rt.connect_sink(t, "out", sink_seen.append)
    ex.start()
    assert gate.wait(5.0)
    ex.submit(rt.abort_task, t)  # flag while running
    released.set()
    ex.close_input()
    assert ex.wait_idle(timeout=10.0)
    ex.shutdown()
    assert t.state is TaskState.ABORTED
    assert sink_seen == []


def test_clock_is_monotonic_microseconds():
    ex = ThreadedExecutor(Runtime(), workers=1)
    a = ex.now
    time.sleep(0.01)
    assert ex.now - a >= 5_000  # at least 5 ms in µs


def test_parallel_execution_overlaps():
    rt = Runtime()
    ex = ThreadedExecutor(rt, workers=4)
    barrier = threading.Barrier(4, timeout=5.0)

    def rendezvous():
        barrier.wait()  # deadlocks unless 4 tasks run simultaneously
        return {"out": 1}

    for i in range(4):
        rt.add_task(Task(f"t{i}", rendezvous))
    ex.run(timeout=10.0)
    assert all(rt.graph.get(f"t{i}").state is TaskState.DONE for i in range(4))
