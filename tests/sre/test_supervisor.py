"""Worker-supervisor tests: crash detection, respawn, retry, quarantine,
degradation, and the shutdown harvest accounting.

The headline regression here is :func:`test_sigkilled_worker_mid_run`: on
the pre-supervisor executor, SIGKILLing a worker while its payload was in
flight left the coordinator thread to die on an uncaught ``EOFError`` in
``conn.recv()`` and the run failed; the supervisor must detect the death
via the process sentinel, respawn, re-dispatch, and complete.

Deterministic chaos uses :mod:`repro.testing.faults`; the external-SIGKILL
tests use a file rendezvous (worker payloads cannot see coordinator
threading primitives).
"""

import multiprocessing
import os
import signal
import time
from functools import partial

import pytest

from repro.errors import TaskExecutionError
from repro.sre import executor_procs
from repro.sre.executor_procs import (MAX_TASK_RETRIES, PipeLink,
                                      ProcessExecutor, WorkerSupervisor)
from repro.sre.runtime import Runtime
from repro.sre.task import Task
from repro.testing.faults import FaultPlan

pytestmark = [pytest.mark.procs, pytest.mark.threaded]


def _identity(i):
    return {"out": i}


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


def _wait_for(path, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _kinds(rt):
    return [e["kind"] for e in rt.events.events()]


# ---------------------------------------------------------------------------
# the headline regression: a SIGKILLed worker must not sink the run
# ---------------------------------------------------------------------------

def test_sigkilled_worker_mid_run(tmp_path):
    """Kill the worker while its payload is in flight; the run completes.

    On the pre-supervisor executor this died on the uncaught ``EOFError``
    from the blind ``conn.recv()`` and the run raised.
    """
    touch = str(tmp_path / "started")
    release = str(tmp_path / "release")
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=1)
    t = rt.add_task(Task("victim", partial(_touch_then_wait, touch, release)))
    ex.start()
    try:
        assert _wait_for(touch), "payload never started in the worker"
        pid = ex.supervisor.pids()[0]
        assert pid is not None
        os.kill(pid, signal.SIGKILL)
        with open(release, "w") as fh:
            fh.write("go")
        ex.close_input()
        assert ex.wait_idle(timeout=60.0)
    finally:
        ex.shutdown()
    ex.raise_errors()
    assert t.outputs == {"out": "released"}
    assert rt.metrics.value("procs_worker_crashes", cause="crash") == 1
    assert rt.metrics.value("procs_worker_respawns") == 1
    kinds = _kinds(rt)
    assert "worker_crash" in kinds
    assert "worker_respawn" in kinds
    assert "task_retry" in kinds


def test_crash_cascade_is_causally_linked():
    """worker_crash is the cause root of its respawn and retries."""
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=1, fault_plan="kill@1")
    rt.add_task(Task("t0", partial(_identity, 0)))
    ex.run(timeout=60.0)
    events = rt.events.events()
    crash = next(e for e in events if e["kind"] == "worker_crash")
    respawn = next(e for e in events if e["kind"] == "worker_respawn")
    retry = next(e for e in events if e["kind"] == "task_retry")
    assert respawn["cause"] == crash["seq"]
    assert retry["cause"] == crash["seq"]
    # the loss cause travels as `reason`; `cause` stays a causal edge
    assert crash["reason"] == "crash"
    assert crash.get("cause") is None


# ---------------------------------------------------------------------------
# hang detection: the dispatch deadline
# ---------------------------------------------------------------------------

def test_hung_worker_hits_deadline_and_recovers():
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=1, fault_plan="hang@1",
                         dispatch_timeout_s=0.5)
    tasks = [rt.add_task(Task(f"t{i}", partial(_identity, i)))
             for i in range(3)]
    ex.run(timeout=60.0)
    assert [t.outputs["out"] for t in tasks] == [0, 1, 2]
    assert rt.metrics.value("procs_worker_crashes", cause="hang") == 1
    assert rt.metrics.value("procs_worker_respawns") == 1


def test_dropped_reply_is_recovered_like_a_hang():
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=1, fault_plan="drop@1",
                         dispatch_timeout_s=0.5)
    tasks = [rt.add_task(Task(f"t{i}", partial(_identity, i)))
             for i in range(3)]
    ex.run(timeout=60.0)
    assert [t.outputs["out"] for t in tasks] == [0, 1, 2]
    assert rt.metrics.value("procs_worker_crashes", cause="hang") == 1
    assert rt.metrics.value("procs_worker_respawns") == 1


def test_slow_worker_within_deadline_is_not_a_crash():
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=1, fault_plan="delay@1:0.2",
                         dispatch_timeout_s=30.0)
    t = rt.add_task(Task("t", partial(_identity, 7)))
    ex.run(timeout=60.0)
    assert t.outputs == {"out": 7}
    assert rt.metrics.value("procs_worker_crashes", cause="hang") == 0
    assert rt.metrics.value("procs_worker_crashes", cause="crash") == 0


# ---------------------------------------------------------------------------
# quarantine: a payload that keeps killing its worker fails for real
# ---------------------------------------------------------------------------

def test_poisonous_payload_is_quarantined():
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=1, fault_plan="kill@1!")
    rt.add_task(Task("poison", partial(_identity, 0)))
    with pytest.raises(TaskExecutionError, match="quarantined"):
        ex.run(timeout=60.0)
    assert rt.metrics.value("procs_tasks_quarantined") == 1
    # Bounded: one initial dispatch + MAX_TASK_RETRIES re-dispatches.
    assert rt.metrics.value("procs_task_retries") <= MAX_TASK_RETRIES
    kinds = _kinds(rt)
    assert "task_quarantine" in kinds
    assert kinds.count("worker_crash") == 1 + MAX_TASK_RETRIES
    assert "worker_respawn" in kinds


# ---------------------------------------------------------------------------
# degradation: out of respawns, the coordinator is the substrate of last
# resort
# ---------------------------------------------------------------------------

def test_seat_degrades_to_inline_and_run_completes(monkeypatch):
    # No respawns, so the seat degrades at its first crash, long before
    # the retry budget could quarantine a task.
    monkeypatch.setattr(executor_procs, "MAX_WORKER_RESPAWNS", 0)
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=1, fault_plan="kill@1!")
    tasks = [rt.add_task(Task(f"t{i}", partial(_identity, i)))
             for i in range(4)]
    ex.run(timeout=60.0)
    assert [t.outputs["out"] for t in tasks] == [0, 1, 2, 3]
    assert rt.metrics.value("procs_workers_degraded") == 1
    assert "worker_crash" in _kinds(rt)
    assert "worker_degraded" in _kinds(rt)
    # Everything after the degradation ran on the coordinator.
    assert ex.tasks_inline >= 1


# ---------------------------------------------------------------------------
# shutdown harvest accounting
# ---------------------------------------------------------------------------

def test_harvest_loss_is_accounted():
    """A worker killed between drain and shutdown loses its final snapshot;
    that loss must be accounted, not silent."""
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=1)
    t = rt.add_task(Task("t", partial(_identity, 1)))
    ex.start()
    ex.close_input()
    assert ex.wait_idle(timeout=60.0)
    pid = ex.supervisor.pids()[0]
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while ex.supervisor.process(0).is_alive():
        assert time.monotonic() < deadline
        time.sleep(0.01)
    ex.shutdown()
    ex.raise_errors()
    assert t.outputs == {"out": 1}
    assert rt.metrics.value("procs_worker_harvest_lost", reason="dead") == 1
    assert "worker_harvest_lost" in _kinds(rt)


def test_clean_run_has_no_crash_or_harvest_noise():
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=2)
    for i in range(6):
        rt.add_task(Task(f"t{i}", partial(_identity, i)))
    ex.run(timeout=60.0)
    kinds = _kinds(rt)
    for kind in ("worker_crash", "worker_respawn", "worker_degraded",
                 "worker_harvest_lost", "task_retry", "task_quarantine"):
        assert kind not in kinds
    assert rt.metrics.value("procs_worker_respawns") == 0


# ---------------------------------------------------------------------------
# folds register once per log, however often supervisors bind it
# ---------------------------------------------------------------------------

def test_shared_log_counts_each_crash_once():
    """Two warm supervisors park on one home runtime and re-bind it again
    and again, as serve lanes do; a crash, its respawn and a lost harvest
    on that log each count once."""
    ctx = multiprocessing.get_context("fork")
    home = Runtime()
    sups = [WorkerSupervisor(PipeLink(ctx), 1, runtime=home,
                             fault_plan=FaultPlan.parse(plan))
            for plan in ("kill@1", None)]
    for sup in sups:
        sup.start()
    try:
        for _ in range(3):
            for sup in sups:
                sup.rebind(home)
        ex = ProcessExecutor(home, workers=1, supervisor=sups[0])
        home.add_task(Task("t0", partial(_identity, 0)))
        ex.run(timeout=60.0)
        os.kill(sups[1].pids()[0], signal.SIGKILL)
        sups[1].process(0).join(timeout=10.0)
    finally:
        for sup in sups:
            sup.stop()
    kinds = _kinds(home)
    m = home.metrics
    assert m.value("procs_worker_crashes", cause="crash") == \
        kinds.count("worker_crash") == 1
    assert m.value("procs_worker_respawns") == \
        kinds.count("worker_respawn") == 1
    assert m.value("procs_worker_harvest_lost", reason="dead") == \
        kinds.count("worker_harvest_lost") == 1
