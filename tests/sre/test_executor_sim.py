"""Unit tests for the simulated executor."""

import pytest

from repro.errors import SchedulingError
from repro.platforms import CellPlatform, X86Platform
from repro.platforms.base import Platform
from repro.platforms.costmodel import CostModel, KindCost
from repro.sre.executor_sim import SimulatedExecutor
from repro.sre.runtime import Runtime
from repro.sre.task import Task, TaskState


def _flat_platform(us=10.0, workers=2, **kw):
    return Platform(
        "flat",
        CostModel(kinds={}, default=KindCost(base=us)),
        default_workers=workers,
        **kw,
    )


def _setup(workers=2, policy="conservative", platform=None):
    rt = Runtime()
    plat = platform or _flat_platform(workers=workers)
    ex = SimulatedExecutor(rt, plat, policy=policy, workers=workers)
    return rt, ex


def test_single_task_takes_service_time():
    rt, ex = _setup()
    t = rt.add_task(Task("t", lambda: {"out": 1}))
    end = ex.run()
    assert end == 10.0
    assert t.state is TaskState.DONE
    assert t.finish_time == 10.0


def test_parallelism_limited_by_workers():
    rt, ex = _setup(workers=2)
    for i in range(4):
        rt.add_task(Task(f"t{i}", lambda: 1))
    end = ex.run()
    # 4 tasks of 10 µs on 2 workers: two waves.
    assert end == 20.0


def test_workers_must_be_positive():
    rt = Runtime()
    with pytest.raises(SchedulingError):
        SimulatedExecutor(rt, _flat_platform(), workers=0)


def test_chain_executes_sequentially():
    rt, ex = _setup()
    a = rt.add_task(Task("a", lambda: {"out": 1}))
    b = rt.add_task(Task("b", lambda x: {"out": x}, inputs=("x",)))
    rt.connect(a, "out", b, "x")
    end = ex.run()
    assert end == 20.0
    assert b.start_time == 10.0


def test_dynamic_tasks_get_executed():
    rt, ex = _setup()
    a = rt.add_task(Task("a", lambda: {"out": 1}))
    a.on_complete.append(lambda t, o: rt.add_task(Task("late", lambda: 1)))
    end = ex.run()
    assert rt.graph.get("late").state is TaskState.DONE
    assert end == 20.0


def test_policy_order_respected_under_contention():
    rt, ex = _setup(workers=1, policy="aggressive")
    order = []
    # The blocker claims the only worker; the natural and speculative tasks
    # then contend for the next dispatch, which the policy decides.
    rt.add_task(Task("blocker", lambda: order.append("blocker")))
    rt.add_task(Task("n", lambda: order.append("n")))
    rt.add_task(Task("s", lambda: order.append("s"), speculative=True))
    ex.run()
    assert order == ["blocker", "s", "n"]


def test_abort_flagged_running_task_discards():
    rt, ex = _setup(workers=1)
    ran = []
    t = rt.add_task(Task("t", lambda: ran.append(1)))
    ex.sim.schedule(5.0, lambda: rt.abort_task(t))  # mid-flight
    ex.run()
    assert t.state is TaskState.ABORTED
    assert ran == []


def test_abort_queued_task_never_runs():
    rt, ex = _setup(workers=1)
    first = rt.add_task(Task("first", lambda: 1))
    victim = rt.add_task(Task("victim", lambda: 1))
    ex.sim.schedule(1.0, lambda: rt.abort_task(victim))
    end = ex.run()
    assert victim.state is TaskState.ABORTED
    assert first.state is TaskState.DONE
    assert end == 10.0  # only one task actually occupied a worker


def test_utilisation_fraction():
    rt, ex = _setup(workers=2)
    rt.add_task(Task("a", lambda: 1))
    ex.run()
    # one worker busy 10 µs, the other idle, over 10 µs elapsed
    assert ex.utilisation() == pytest.approx(0.5)


def test_service_time_from_cost_hint():
    rt = Runtime()
    plat = Platform(
        "hints",
        CostModel(kinds={"enc": KindCost(base=1.0, per_byte=0.5)}),
        default_workers=1,
    )
    ex = SimulatedExecutor(rt, plat, workers=1)
    t = rt.add_task(Task("t", lambda: 1, kind="enc", cost_hint={"bytes": 8.0}))
    assert ex.run() == pytest.approx(5.0)


def test_cell_dma_delays_start():
    rt = Runtime()
    plat = CellPlatform(workers=1)
    ex = SimulatedExecutor(rt, plat, workers=1)
    t = rt.add_task(Task("t", lambda: 1, kind="count", cost_hint={"bytes": 4096.0}))
    ex.run()
    # DMA = 2 + 0.002*4096 ≈ 10.2 µs before the task may start.
    assert t.start_time == pytest.approx(plat.transfer_time(t))


def test_cell_prefetch_overlaps_dma_with_compute():
    rt = Runtime()
    plat = CellPlatform(workers=1)
    ex = SimulatedExecutor(rt, plat, workers=1)
    t1 = rt.add_task(Task("t1", lambda: 1, kind="count", cost_hint={"bytes": 4096.0}))
    t2 = rt.add_task(Task("t2", lambda: 1, kind="count", cost_hint={"bytes": 4096.0}))
    ex.run()
    # t2's DMA ran while t1 computed: t2 starts exactly when t1 finishes.
    assert t2.start_time == pytest.approx(t1.finish_time)


def test_prefetch_depth_bounds_local_queue():
    rt = Runtime()
    plat = CellPlatform(workers=1, slots=2)
    ex = SimulatedExecutor(rt, plat, workers=1)
    for i in range(6):
        rt.add_task(Task(f"t{i}", lambda: 1, kind="count", cost_hint={"bytes": 1024.0}))
    ex._dispatch()
    # depth 2: one running/queued pair at most
    assert ex.workers[0].load() <= 2
    ex.run()
    assert all(rt.graph.get(f"t{i}").state is TaskState.DONE for i in range(6))


def test_run_until_stops_clock():
    rt, ex = _setup(workers=1)
    for i in range(3):
        rt.add_task(Task(f"t{i}", lambda: 1))
    end = ex.run(until=15.0)
    assert end == 15.0
    # remaining task still pending
    assert any(t.state is not TaskState.DONE for t in rt.graph.tasks())


def test_deterministic_replay():
    def go():
        rt, ex = _setup(workers=3, policy="balanced")
        order = []
        for i in range(20):
            spec = i % 3 == 0
            rt.add_task(Task(f"t{i}", lambda i=i: order.append(i), speculative=spec))
        ex.run()
        return order

    assert go() == go()
