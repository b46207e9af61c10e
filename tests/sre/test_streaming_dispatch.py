"""Streaming dispatch on the process pool: per-payload completion,
per-payload wall attribution, and one bounded window per seat.

This is the head-of-line regression suite. Before replies streamed one
per payload, a batch's fast members waited on its slowest member: their
*replies* were held until the whole batch resolved. A seat now claims
only the window it ships, so a straggler can hold nothing beyond its
own pipe. The tests here fail (by hanging into their waits) against
whole-batch dispatch.

Task functions are module-level so payloads pickle and genuinely ship;
cross-process rendezvous uses files, as in test_executor_procs.py.
"""

import os
import time
from functools import partial

import pytest

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.sre.executor_procs import BATCH_MAX, ProcessExecutor
from repro.sre.runtime import Runtime
from repro.sre.task import Task, TaskState

pytestmark = [pytest.mark.procs, pytest.mark.threaded]


def _identity(i):
    return {"out": i}


def _touch(path):
    with open(path, "w") as fh:
        fh.write("ran")
    return {"out": "ran"}


def _sleep_identity(seconds, i):
    time.sleep(seconds)
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


def _wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


# ---------------------------------------------------------------------------
# head-of-line: a fast batch-mate completes while a slow member runs
# ---------------------------------------------------------------------------

def test_fast_batch_mate_completes_while_slow_member_still_runs(tmp_path):
    """The regression itself: 'fast' and 'slow' share one pipe message on
    the only seat; 'fast' executes first and its reply must complete it
    while 'slow' is still inside its body. Whole-batch replies hold the
    fast result hostage and this test times out."""
    started = tmp_path / "started"
    release = tmp_path / "release"
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=1)
    fast = rt.add_task(Task("fast", partial(_identity, 1)))
    slow = rt.add_task(
        Task("slow", partial(_touch_then_wait, str(started), str(release))))
    ex.start()
    ex.close_input()
    assert _wait_until(started.exists)  # the slow body is executing
    assert ex.batches >= 1              # ...so both rode one pipe message
    assert _wait_until(lambda: fast.state is TaskState.DONE)
    assert slow.state is TaskState.RUNNING  # still held by the worker
    release.write_text("go")
    assert ex.wait_idle(timeout=60.0)
    ex.shutdown()
    assert fast.outputs == {"out": 1}
    assert slow.outputs == {"out": "released"}


def test_wall_time_is_attributed_per_payload():
    """``exec_task_wall_us`` stamps each payload with its *own* send→reply
    time: a fast rider batched ahead of a sleeping mate must not inherit
    the sleeper's wall clock."""
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=1)
    rt.add_task(Task("fast", partial(_identity, 1), kind="rider"))
    rt.add_task(Task("slow", partial(_sleep_identity, 0.5, 2), kind="sleeper"))
    ex.run(timeout=60.0)
    assert ex.batches >= 1  # both genuinely shared a pipe message
    hist = rt.metrics.histogram("exec_task_wall_us", labelnames=("kind",))
    rider_us = hist.labels(kind="rider").sum()
    sleeper_us = hist.labels(kind="sleeper").sum()
    assert sleeper_us >= 400_000  # the sleeper owns its 0.5 s
    assert rider_us < sleeper_us / 4  # the rider does not


# ---------------------------------------------------------------------------
# one window per seat: a straggler holds only what is in its pipe
# ---------------------------------------------------------------------------

def test_straggler_holds_only_its_window(tmp_path):
    """Seat B blocks on its own gated head; seat A then claims a wave
    larger than one window behind a gated head. A ships at most
    ``BATCH_MAX`` payloads, so the rest of the wave stays in the ready
    queues and completes on B once B frees, while A is still gated."""
    start_b, gate_b = tmp_path / "start_b", tmp_path / "gate_b"
    start_a, gate_a = tmp_path / "start_a", tmp_path / "gate_a"
    registry = MetricsRegistry()
    events = EventLog("window-test")
    rt = Runtime(metrics=registry, events=events)
    ex = ProcessExecutor(rt, workers=2)
    fasts = []

    def _add_wave():
        rt.add_task(Task(
            "slow_a", partial(_touch_then_wait, str(start_a), str(gate_a))))
        for i in range(20):
            fasts.append(rt.add_task(Task(f"f{i}", partial(_identity, i))))

    ex.start()
    try:
        # Occupy one seat first, so the wave below is claimed by the other.
        ex.submit(rt.add_task, Task(
            "slow_b", partial(_touch_then_wait, str(start_b), str(gate_b))))
        assert _wait_until(start_b.exists)
        ex.submit(_add_wave)  # one lock hold: only the idle seat claims it
        assert _wait_until(start_a.exists)  # seat A's head is executing
        dispatched = [e for e in events.events()
                      if e["kind"] == "task_dispatch"]
        seat_a = next(e["worker"] for e in dispatched
                      if e["task"] == "slow_a")
        held = {e["task"] for e in dispatched if e["worker"] == seat_a}
        assert "slow_a" in held and len(held) <= BATCH_MAX
        assert ex.tasks_shipped <= 1 + BATCH_MAX  # slow_b + A's window
        gate_b.write_text("go")  # B takes the rest from the ready queues
        rest = [t for t in fasts if t.name not in held]
        assert len(rest) >= len(fasts) - (BATCH_MAX - 1)
        assert _wait_until(
            lambda: all(t.state is TaskState.DONE for t in rest),
            timeout_s=30.0)
        assert not gate_a.exists()  # ...all while the straggler is gated
        assert all(t.state is TaskState.RUNNING
                   for t in fasts if t.name in held)
    finally:
        gate_a.write_text("go")
        gate_b.write_text("go")
        ex.close_input()
        drained = ex.wait_idle(timeout=60.0)
        ex.shutdown()
    assert drained
    assert {t.outputs["out"] for t in fasts} == set(range(20))
    assert registry.value("procs_inline_reruns") == 0


def test_claimed_extra_aborted_before_it_ships_is_reaped(tmp_path):
    """An extra aborted between its claim and its send is reaped on the
    coordinator — its body never runs — and its window-mates still ship
    and run on the worker, not as skipped bystanders re-run inline."""
    marker = tmp_path / "ran"
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=1)
    tasks = [rt.add_task(Task(f"t{i}", partial(_identity, i)))
             for i in range(4)]
    victim = rt.add_task(Task("victim", partial(_touch, str(marker))))
    claim = ex._take_extras

    def _claim_then_abort(wid):
        shippable, inline, failed = claim(wid)
        assert victim in [t for t, _b in shippable]
        rt.abort_task(victim)  # claimed (RUNNING), not yet shipped
        return shippable, inline, failed

    ex._take_extras = _claim_then_abort
    ex.run(timeout=60.0)
    assert victim.state is TaskState.ABORTED
    assert not marker.exists()
    assert [t.outputs["out"] for t in tasks] == [0, 1, 2, 3]
    assert ex.tasks_shipped == 4 and ex.tasks_inline == 0
    assert rt.metrics.value("procs_inline_reruns") == 0


# ---------------------------------------------------------------------------
# the batching guard counts idle *seats*, not n_workers - inflight tasks
# ---------------------------------------------------------------------------

def test_extras_leave_one_task_per_idle_seat():
    """Regression: the old guard compared the queue depth against
    ``n_workers - inflight``, where inflight counts *tasks* — one batch
    of extras drove it negative and the claim swept the whole queue,
    starving every idle seat. The fixed guard counts idle seats."""
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=3)
    for i in range(6):
        rt.add_task(Task(f"t{i}", partial(_identity, i)))
    with ex._cond:
        primary = ex._acquire_work(0)
        shippable, inline, failed = ex._take_extras(0)
    assert primary.name == "t0" and not inline and not failed
    # 5 queued, 2 idle seats: claim exactly 3, leave one per idle seat.
    assert [t.name for t, _ in shippable] == ["t1", "t2", "t3"]
    assert len(rt.natural_queue) == 2


def test_idle_seats_counts_seats_not_inflight_tasks():
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=2)
    ex._busy[0] = True
    ex._inflight = 5  # one seat holding a deep batch
    # n_workers - inflight would answer -3 here; there is one idle seat.
    assert ex._idle_seats() == 1
