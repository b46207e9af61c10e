"""Folds: counters derived from the event stream, one write per fact.

An :class:`EventLog` fold runs on every event of its kind that ``emit``
records — with the ring disabled and after it wrapped — and never on
events merged in from a worker or a remote pool, which were folded where
they were emitted.
"""

import sys
import threading

import pytest

from repro.core.frequency import EveryK, SpeculationInterval
from repro.core.manager import SpeculationManager
from repro.core.spec import SpeculationSpec
from repro.core.tolerance import RelativeTolerance
from repro.errors import TaskExecutionError
from repro.obs.events import EventLog
from repro.sre.executor_threads import ThreadedExecutor
from repro.sre.runtime import Runtime
from repro.sre.task import Task

from tests.conftest import make_harness


def _folded(log, kind="k"):
    seen = []
    log.fold(kind, seen.append)
    return seen


def test_fold_sees_each_emitted_event_of_its_kind():
    log = EventLog("r")
    seen = _folded(log)
    log.emit("k", task="a", n=1)
    log.emit("other")
    log.emit("k", n=2)
    assert [e["n"] for e in seen] == [1, 2]
    assert seen[0] is log.events()[0]  # the ring's own event, seq and all
    assert [e["seq"] for e in seen] == [1, 3]


def test_fold_runs_with_the_ring_disabled():
    log = EventLog("r", enabled=False)
    seen = _folded(log)
    assert log.emit("k", n=1) == 0
    assert log.emit("other") == 0
    assert [(e["kind"], e["n"], e["seq"]) for e in seen] == [("k", 1, 0)]
    assert len(log) == 0 and log.last_seq == 0


def test_fold_runs_after_the_ring_wrapped():
    log = EventLog("r", capacity=2)
    seen = _folded(log)
    for i in range(5):
        log.emit("k", n=i)
    assert len(log) == 2
    assert [e["n"] for e in seen] == [0, 1, 2, 3, 4]


def test_merged_events_are_recorded_not_folded():
    log = EventLog("r")
    seen = _folded(log)
    worker = EventLog("w0")
    worker.emit("k", n=1)
    log.merge_worker(0, worker.events())
    log.merge_remote("pool:1", worker.events())
    assert [e["kind"] for e in log.events()] == ["k", "k"]
    assert seen == []


@pytest.mark.parametrize("enabled", [True, False])
def test_concurrent_emits_lose_no_folded_update(enabled):
    """Folds run under the log's lock: eight threads ending tasks at once,
    with the switch interval shortened, lose no count."""
    rt = Runtime(events=EventLog("r", enabled=enabled))
    n_threads, per_thread = 8, 500

    def end_tasks():
        for _ in range(per_thread):
            rt.events.emit("task_done", task="t", task_kind="k", dur_us=1.0)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=end_tasks) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    total = n_threads * per_thread
    assert rt.stats()["tasks_completed"] == total
    assert rt.metrics.value("sre_tasks_completed", speculative="no") == total
    assert rt.metrics.get("sre_task_us").labels(kind="k").count() == total


# ----------------------------------------------------------------------
# which path a task failure came from
# ----------------------------------------------------------------------
def _boom():
    raise ValueError("boom")


def test_runtime_failure_path_counts_sre_task_failures():
    h = make_harness()
    h.task("bad", _boom)
    with pytest.raises(TaskExecutionError):
        h.run()
    m = h.runtime.metrics
    assert m.value("sre_task_failures") == 1
    assert m.value("sre_tasks_aborted", speculative="no") == 1
    assert h.runtime.stats()["tasks_aborted"] == 1
    assert m.get("exec_task_failures") is None  # no live executor here


def test_live_failure_path_counts_exec_task_failures():
    rt = Runtime()
    ex = ThreadedExecutor(rt, workers=1)
    rt.add_task(Task("bad", _boom))
    with pytest.raises(TaskExecutionError):
        ex.run(timeout=30.0)
    m = rt.metrics
    assert m.value("exec_task_failures") == 1
    assert m.value("sre_task_failures") == 0  # only the runtime's own path
    assert m.value("sre_tasks_aborted", speculative="no") == 1
    assert rt.stats()["tasks_aborted"] == 1
    (failed,) = [e for e in rt.events.events() if e["kind"] == "task_failed"]
    assert failed["worker"] == 0


# ----------------------------------------------------------------------
# a stale verdict is an event too
# ----------------------------------------------------------------------
def test_stale_verdict_is_one_check_stale_event():
    """Two checks in flight on v1: the first fails and rolls v1 back, so
    the second lands on a dead version — a stale verdict."""
    h = make_harness()

    def launch(version):
        work = Task(f"work:v{version.vid}", lambda v=version.value: {"out": v},
                    kind="encode", speculative=True)
        version.register(work)
        h.runtime.add_task(work)

    spec = SpeculationSpec(
        name="dom",
        predictor=lambda v, n: Task(n, lambda x=v: {"out": x}, kind="predict"),
        validator=lambda p, c, r: abs(p - c) / max(abs(c), 1e-9),
        launch=launch,
        recompute=lambda v: None,
        tolerance=RelativeTolerance(0.01),
        interval=SpeculationInterval(1),
        verification=EveryK(1),
    )
    m = SpeculationManager(h.runtime, spec)
    m.offer_update(1, 100.0)
    h.run()
    m.offer_update(2, 500.0)
    m.offer_update(3, 500.0)
    h.run()
    assert m.stats.stale_verdicts == 1
    assert m.stats.checks == m.stats.checks_failed + 1 == 2
    stale = [e for e in h.runtime.events.events() if e["kind"] == "check_stale"]
    assert [(e["version"], e["index"], e["domain"]) for e in stale] == [(1, 3, "dom")]
    assert m.stats.check_errors[-1] == stale[0]["error"]
    reg = h.runtime.metrics
    assert reg.value("spec_stale_verdicts") == 1
    assert reg.get("spec_check_error").count() == 2
