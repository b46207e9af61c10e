"""Local tasks: serial-chain links run on the coordinator, never in a
worker's pipe window.

A local task (``Task(local=True)``, and every control task) costs less
than a trip to a worker and sits on a serial chain. On the process
back-end the thread that makes one ready runs it at once; the simulated
and threaded executors ignore the flag, so the figures cannot move.

Task functions are module-level so payloads pickle and genuinely ship.
"""

import time
from functools import partial

import pytest

from repro.obs.events import COORDINATOR_WORKER
from repro.platforms import get_platform
from repro.sre.executor_procs import BATCH_MAX, ProcessExecutor
from repro.sre.executor_sim import SimulatedExecutor
from repro.sre.executor_threads import ThreadedExecutor
from repro.sre.runtime import Runtime
from repro.sre.task import Task, TaskState


def _nap(seconds, i):
    time.sleep(seconds)
    return {"out": i}


def _link(prev):
    return {"out": prev + 1}


def _chain(rt, head, n, *, local=True, depth=0):
    """``n`` links, the first fed by ``head``'s output."""
    links = []
    prev, port = head, "out"
    for i in range(n):
        link = rt.add_task(Task(f"link:{i}", _link, inputs=("prev",),
                                kind="reduce", local=local, depth=depth,
                                cost_hint={"entries": 256.0}))
        rt.connect(prev, port, link, "prev")
        links.append(link)
        prev = link
    return links


# ---------------------------------------------------------------------------
# the flag
# ---------------------------------------------------------------------------

def test_control_tasks_are_local_by_definition():
    assert not Task("t", None).local
    assert Task("t", None, local=True).local
    assert Task("t", None, control=True).local
    late = Task("t", None)
    late.control = True  # the speculation manager flags predictors late
    assert late.local


def test_huffman_chain_factories_build_local_tasks():
    import numpy as np

    from repro.huffman.histogram import zero_histogram
    from repro.huffman.tasks import (make_count_region, make_encode_region,
                                     make_offset_task, make_reduce_task,
                                     make_tree_task)
    from repro.huffman.tree import HuffmanTree

    block = np.frombuffer(b"abracadabra", dtype=np.uint8)
    hist = zero_histogram() + 1
    tree = HuffmanTree.from_histogram(hist)
    assert make_reduce_task(0, [hist]).local
    assert make_tree_task(hist, "tree:natural").local
    assert make_offset_task("offset:g0", [hist], tree, speculative=True).local
    assert not make_count_region(0, [block]).local
    assert not make_encode_region("encode", 0, [block], tree, [0],
                                  speculative=False).local


def test_opting_in_moves_already_ready_local_tasks():
    rt = Runtime()
    ship = rt.add_task(Task("ship", None))
    early = rt.add_task(Task("early", None, local=True, speculative=True))
    queue = rt.use_local_queue()
    assert queue is rt.local_queue and rt.use_local_queue() is queue
    late = rt.add_task(Task("late", None, local=True))
    assert len(rt.speculative_queue) == 0 and rt.speculative_queue.pop() is None
    assert rt.natural_queue.pop() is ship and rt.natural_queue.pop() is None
    rt.abort_task(late)  # an abort finds a moved task's queue too
    rt.abort_task(early)
    assert len(queue) == 0 and queue.pop() is None


def test_aborting_a_queued_local_task_leaves_its_queue():
    rt = Runtime()
    rt.use_local_queue()
    loc = rt.add_task(Task("loc", None, local=True))
    rt.abort_task(loc)
    assert loc.state is TaskState.ABORTED
    assert len(rt.local_queue) == 0 and rt.local_queue.pop() is None


# ---------------------------------------------------------------------------
# sim and threads do not opt in
# ---------------------------------------------------------------------------

def _sim_order(local: bool) -> list[tuple]:
    rt = Runtime()
    ex = SimulatedExecutor(rt, get_platform("x86"), workers=2)
    counts = [rt.add_task(Task(f"count:{i}", partial(_nap, 0.0, i),
                               kind="count", cost_hint={"bytes": 4096.0}))
              for i in range(12)]
    links = _chain(rt, counts[0], 8, local=local, depth=1)
    checks = [rt.add_task(Task(f"check:{i}", _link, inputs=("prev",),
                               kind="check", control=True,
                               cost_hint={"entries": 256.0}))
              for i in range(2)]
    rt.connect(links[3], "out", checks[0], "prev")
    rt.connect(links[7], "out", checks[1], "prev")
    ex.run()
    assert rt.local_queue is None
    return [(e["kind"], e["task"], e["t"], e.get("worker"))
            for e in rt.events.events()
            if e["kind"] in ("task_ready", "task_dispatch", "task_done")]


def test_sim_order_is_the_same_with_and_without_local_tasks():
    with_local = _sim_order(local=True)
    assert with_local == _sim_order(local=False)
    assert all(worker != COORDINATOR_WORKER for *_, worker in with_local)


def test_threaded_executor_runs_local_tasks_on_its_workers():
    rt = Runtime()
    ex = ThreadedExecutor(rt, workers=2)
    head = rt.add_task(Task("head", partial(_nap, 0.0, 0)))
    links = _chain(rt, head, 3)
    ex.run(timeout=30.0)
    assert rt.local_queue is None
    assert links[-1].outputs == {"out": 3}
    workers = {e["worker"] for e in rt.events.events()
               if e["kind"] == "task_dispatch"}
    assert COORDINATOR_WORKER not in workers


# ---------------------------------------------------------------------------
# procs: the chain never queues behind a pipe window
# ---------------------------------------------------------------------------

NAP_S = 0.02


@pytest.mark.procs
@pytest.mark.threaded
def test_local_chain_never_waits_behind_a_pipe_window():
    """Regression for chain starvation: 48 shippable 20 ms naps keep one
    worker's 16-deep pipe window full; a chain of 8 local links hangs off
    the first nap. Shipped, each link would wait for at least one window
    to drain (16 × 20 ms) before it reached the worker; on the
    coordinator each one runs the moment its input lands."""
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=1)
    naps = [rt.add_task(Task(f"nap:{i}", partial(_nap, NAP_S, i)))
            for i in range(48)]
    links = _chain(rt, naps[0], 8)
    ex.run(timeout=60.0)
    assert links[-1].outputs == {"out": 8}
    window_drain_us = BATCH_MAX * NAP_S * 1e6
    waits = [link.finish_time - link.ready_time for link in links]
    assert max(waits) < window_drain_us, waits
    ran_on = {e["task"]: e["worker"] for e in rt.events.events()
              if e["kind"] == "task_dispatch"}
    assert all(ran_on[link.name] == COORDINATOR_WORKER for link in links)
    assert all(ran_on[nap.name] == 0 for nap in naps)
    assert ex.tasks_shipped == 48
    assert ex.tasks_inline == 8


@pytest.mark.procs
@pytest.mark.threaded
def test_local_task_failure_aborts_its_dependents():
    rt = Runtime()
    ex = ProcessExecutor(rt, workers=1)
    head = rt.add_task(Task("head", partial(_nap, 0.0, "not a number")))
    links = _chain(rt, head, 3)
    with pytest.raises(Exception, match="link:0"):
        ex.run(timeout=30.0)
    assert [link.state for link in links] == [TaskState.ABORTED] * 3
    assert len(rt.local_queue) == 0
