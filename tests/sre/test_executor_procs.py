"""Unit tests for the process-pool executor (real processes, wall clock).

Task functions here are module-level (bound with ``functools.partial``) so
their payloads pickle and genuinely ship to worker processes; tests that
*want* coordinator-inline execution use lambdas/closures on purpose.
Cross-process rendezvous uses files — worker processes cannot see
coordinator threading primitives.
"""

import os
import time
from functools import partial

import pytest

from repro.errors import PlatformError, SchedulingError, TaskExecutionError
from repro.sre import executor_procs
from repro.sre.executor_procs import (
    _OK,
    _SKIPPED,
    BATCH_BYTES,
    ProcessExecutor,
    _process_main,
)
from repro.sre.runtime import Runtime
from repro.sre.task import Task, TaskState

pytestmark = [pytest.mark.procs, pytest.mark.threaded]


# ---------------------------------------------------------------------------
# picklable task bodies
# ---------------------------------------------------------------------------

def _identity(i):
    return {"out": i}


def _double(x):
    return {"out": x * 2}


def _incr(x):
    return {"out": x + 1}


def _touch_then_wait(touch_path, wait_path, timeout_s=20.0):
    """Signal 'started' by creating touch_path, then block on wait_path."""
    with open(touch_path, "w") as fh:
        fh.write("started")
    deadline = time.monotonic() + timeout_s
    while not os.path.exists(wait_path):
        if time.monotonic() > deadline:
            return {"out": "timeout"}
        time.sleep(0.005)
    return {"out": "released"}


def _touch(path):
    with open(path, "w") as fh:
        fh.write("ran")
    return {"out": "ran"}


def _nap(seconds):
    time.sleep(seconds)
    return {"out": seconds}


def _boom():
    raise ValueError("kernel exploded")


def _wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


# ---------------------------------------------------------------------------
# the threaded executor's contract, on processes
# ---------------------------------------------------------------------------

def test_runs_all_tasks_in_worker_processes():
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=2)
    for i in range(10):
        rt.add_task(Task(f"t{i}", partial(_identity, i)))
    ex.run(timeout=60.0)
    assert {t.name: t.outputs["out"] for t in rt.graph.tasks()} == {
        f"t{i}": i for i in range(10)
    }
    assert ex.tasks_shipped == 10
    assert ex.tasks_inline == 0


def test_dataflow_chain_executes_in_order():
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=3)
    a = rt.add_task(Task("a", partial(_identity, 5)))
    b = rt.add_task(Task("b", _double, inputs=("x",)))
    rt.connect(a, "out", b, "x")
    ex.run(timeout=60.0)
    assert b.outputs == {"out": 10}


def test_external_delivery_while_running():
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=2)
    t = rt.add_task(Task("t", _incr, inputs=("x",)))
    ex.start()
    ex.deliver(t, "x", 41)
    ex.close_input()
    assert ex.wait_idle(timeout=60.0)
    ex.shutdown()
    assert t.outputs == {"out": 42}


def test_deliver_after_close_input_raises():
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=1)
    t = rt.add_task(Task("t", _incr, inputs=("x",)))
    ex.start()
    ex.close_input()
    with pytest.raises(SchedulingError):
        ex.deliver(t, "x", 1)
    ex.shutdown()


def test_workers_must_be_positive():
    with pytest.raises(SchedulingError):
        ProcessExecutor(Runtime(), workers=0)


def test_policy_selection_by_name_and_instance():
    from repro.sre.policies import ThrottledPolicy

    for policy in ("aggressive", "balanced", ThrottledPolicy(max_speculative=1)):
        rt = Runtime()
        ex = ProcessExecutor(rt, workers=2, policy=policy)
        for i in range(4):
            rt.add_task(Task(f"n{i}", partial(_identity, i)))
            rt.add_task(Task(f"s{i}", partial(_identity, i), speculative=True))
        ex.run(timeout=60.0)
        assert rt.stats()["tasks_completed"] == 8


# ---------------------------------------------------------------------------
# abort protocol across the process boundary
# ---------------------------------------------------------------------------

def test_abort_flagged_running_task_is_reaped_on_completion(tmp_path):
    """The paper's destroy-signal protocol: in-flight work cannot be
    recalled; its results are discarded when it completes."""
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=1)
    started = tmp_path / "started"
    release = tmp_path / "release"
    t = rt.add_task(Task("slow", partial(_touch_then_wait, str(started), str(release))))
    sink_seen = []
    rt.connect_sink(t, "out", sink_seen.append)
    ex.start()
    assert _wait_until(started.exists)  # worker process is executing
    ex.submit(rt.abort_task, t)  # flag while running in another process
    release.write_text("go")
    ex.close_input()
    assert ex.wait_idle(timeout=60.0)
    ex.shutdown()
    assert t.state is TaskState.ABORTED
    assert sink_seen == []
    assert rt.stats()["tasks_aborted"] == 1


def _send_batch(conn, blobs):
    """Speak the batch wire protocol: a pickled ``(frame count,
    traceparent)`` header, then the frames."""
    import pickle

    conn.send_bytes(pickle.dumps((len(blobs), None)))
    for blob in blobs:
        conn.send_bytes(blob)


def test_worker_observes_abort_flag_before_launch(tmp_path):
    """A raised abort flag is visible in the worker's address space: the
    payload is skipped entirely, not executed-and-discarded."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=True)
    flags = ctx.Array("b", 1, lock=False)
    flags[0] = 1  # destroy signal raised before the payload arrives
    proc = ctx.Process(target=_process_main, args=(child, flags, 0), daemon=True)
    proc.start()
    child.close()
    marker = tmp_path / "ran"
    task = Task("skipped", partial(_touch, str(marker)))
    _send_batch(parent, [task.serialize_payload()])
    seq, status, payload = parent.recv()
    assert (seq, status) == (1, _SKIPPED)
    assert not marker.exists()  # the body never ran
    flags[0] = 0
    _send_batch(parent, [task.serialize_payload()])
    seq, status, payload = parent.recv()
    assert seq == 2  # the reply stream counts across batches
    assert status == _OK and payload == {"out": "ran"}
    parent.send_bytes(b"\x00__sre_stop__")
    proc.join(timeout=10.0)
    assert proc.exitcode == 0


def test_worker_streams_one_reply_per_payload(tmp_path):
    """Many payloads in one pipe message come back as one sequenced reply
    *each*, in payload order — the streaming wire protocol."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=True)
    flags = ctx.Array("b", 1, lock=False)
    proc = ctx.Process(target=_process_main, args=(child, flags, 0), daemon=True)
    proc.start()
    child.close()
    tasks = [Task(f"b{i}", partial(_identity, i)) for i in range(5)]
    _send_batch(parent, [t.serialize_payload() for t in tasks])
    replies = [parent.recv() for _ in range(5)]
    assert [seq for seq, _, _ in replies] == [1, 2, 3, 4, 5]
    assert [status for _, status, _ in replies] == [_OK] * 5
    assert [payload["out"] for _, _, payload in replies] == list(range(5))
    parent.send_bytes(b"\x00__sre_stop__")
    proc.join(timeout=10.0)
    assert proc.exitcode == 0


def test_worker_exits_when_orphaned_mid_batch():
    """A header promising two frames, then one frame and silence: the
    worker must not wait forever for the second. Its coordinator pid is
    not its parent's, so it counts as orphaned and exits at the next
    poll slice although the pipe never reaches EOF."""
    import multiprocessing
    import pickle

    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=True)
    flags = ctx.Array("b", 1, lock=False)
    parent.send_bytes(pickle.dumps((2, None)))
    parent.send_bytes(Task("first", partial(_identity, 0)).serialize_payload())
    proc = ctx.Process(target=_process_main, args=(child, flags, 0),
                       kwargs={"coordinator": -1}, daemon=True)
    proc.start()
    try:
        proc.join(timeout=10.0)
        assert proc.exitcode == 0
        assert not parent.poll()  # the half-received batch got no reply
    finally:
        if proc.is_alive():
            proc.kill()
            proc.join()  # bounded: SIGKILL ends the worker
    child.close()
    parent.close()


# ---------------------------------------------------------------------------
# inline fallback and payload budget
# ---------------------------------------------------------------------------

def test_unpicklable_payload_runs_inline_on_coordinator():
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=2)
    seen = []
    rt.add_task(Task("closure", lambda: {"out": seen.append("ran") or 1}))
    ex.run(timeout=60.0)
    assert seen == ["ran"]  # closure mutated *this* process's state
    assert ex.tasks_inline == 1
    assert ex.tasks_shipped == 0


def _size(blob):
    return {"out": len(blob)}


def test_oversized_extra_ships_alone_to_a_worker():
    """A claimed extra over ``BATCH_BYTES`` ships to the worker in a
    message of its own; it never falls back to the coordinator."""
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=1)
    messages = []  # the tasks of each pipe message, in send order
    account = ex._account_shipped
    ex._account_shipped = lambda pairs: (
        messages.append([t.name for t, _b in pairs]), account(pairs))
    for i in range(3):
        rt.add_task(Task(f"t{i}", partial(_identity, i)))
    big = rt.add_task(Task("big", partial(_size, bytes(BATCH_BYTES + 1))))
    for i in range(3, 6):
        rt.add_task(Task(f"t{i}", partial(_identity, i)))
    ex.run(timeout=60.0)
    assert big.outputs == {"out": BATCH_BYTES + 1}
    assert ex.tasks_inline == 0
    assert ex.tasks_shipped == 7
    assert rt.metrics.value("procs_worker_tasks", worker="0") == 7
    assert ["big"] in messages
    assert sum(len(names) for names in messages) == 7
    # the small payloads still share messages
    assert rt.metrics.value("procs_batches") >= 1


def test_control_tasks_always_run_inline():
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=2)
    rt.add_task(Task("check", partial(_identity, 7), control=True))
    ex.run(timeout=60.0)
    assert ex.tasks_inline == 1
    assert ex.tasks_shipped == 0


def test_payload_budget_enforced(monkeypatch):
    # A 256-byte cap, so a 4 KB payload trips it without shipping 8 MB.
    monkeypatch.setattr(executor_procs, "PAYLOAD_BUDGET", 256)
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=1)
    big = bytes(4096)
    t = rt.add_task(Task("oversize", partial(_identity, big)))
    with pytest.raises(TaskExecutionError) as err:
        ex.run(timeout=60.0)
    assert isinstance(err.value.original, PlatformError)
    assert t.state is TaskState.ABORTED


def test_worker_exception_becomes_task_failure_and_aborts_dependents():
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=2)
    bad = rt.add_task(Task("bad", _boom))
    dep = rt.add_task(Task("dep", _double, inputs=("x",)))
    rt.connect(bad, "out", dep, "x")
    ok = rt.add_task(Task("ok", partial(_identity, 1)))
    with pytest.raises(TaskExecutionError, match="bad"):
        ex.run(timeout=60.0)
    assert bad.state is TaskState.ABORTED
    assert dep.state is TaskState.ABORTED
    assert ok.state is TaskState.DONE


# ---------------------------------------------------------------------------
# utilisation: one seat, one pipe window
# ---------------------------------------------------------------------------

def test_utilisation_counts_a_pipe_window_once():
    """A seat is busy from its first claim to its last reply. The eight
    naps of one pipe window overlap on that seat — their claim→done
    spans add up to more than the whole run — yet the seat counts once."""
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=1)
    for i in range(8):
        rt.add_task(Task(f"nap{i}", partial(_nap, 0.05)))
    ex.run(timeout=60.0)
    spans = sum(t.finish_time - t.start_time for t in rt.graph.tasks())
    assert spans > ex.now
    assert 0.0 < ex.utilisation() <= 1.0


@pytest.mark.slow
def test_pipeline_utilisation_is_a_fraction():
    """1024 pdf blocks on two seats with full pipe windows: summing the
    windows' overlapping spans read 2.5-8.4 on a 2-core host; the union
    reads <= 1."""
    from repro.experiments.runner import RunConfig, run_huffman

    report = run_huffman(config=RunConfig(
        workload="pdf", n_blocks=1024, seed=7, executor="procs", workers=2,
        reduce_ratio=16, offset_fanout=64, feed_gap_s=0.0))
    assert report.roundtrip_ok
    assert 0.0 < report.utilisation <= 1.0


# ---------------------------------------------------------------------------
# true parallelism
# ---------------------------------------------------------------------------

def _rendezvous(my_path, all_paths, timeout_s=30.0):
    with open(my_path, "w") as fh:
        fh.write("here")
    deadline = time.monotonic() + timeout_s
    while not all(os.path.exists(p) for p in all_paths):
        if time.monotonic() > deadline:
            return {"out": "timeout"}
        time.sleep(0.005)
    return {"out": "met"}


def test_parallel_execution_overlaps_across_processes(tmp_path):
    """4 tasks rendezvous via the filesystem — impossible unless all four
    are simultaneously in flight in separate processes."""
    n = 4
    paths = [str(tmp_path / f"w{i}") for i in range(n)]
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=n)
    for i in range(n):
        rt.add_task(Task(f"t{i}", partial(_rendezvous, paths[i], paths)))
    ex.run(timeout=120.0)
    assert [rt.graph.get(f"t{i}").outputs["out"] for i in range(n)] == ["met"] * n
