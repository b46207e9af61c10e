"""Unit tests for the ready queue's dispatch ordering."""

from repro.sre.queues import ReadyQueue
from repro.sre.task import Task


def _ready(name, depth=0, control=False):
    t = Task(name, lambda: 1, depth=depth, control=control)
    t.mark_ready(0.0)
    return t


def test_fcfs_within_equal_depth():
    q = ReadyQueue()
    a, b = _ready("a", depth=2), _ready("b", depth=2)
    q.push(a)
    q.push(b)
    assert q.pop() is a
    assert q.pop() is b


def test_depth_favoured():
    q = ReadyQueue()
    shallow, deep = _ready("s", depth=0), _ready("d", depth=4)
    q.push(shallow)
    q.push(deep)
    assert q.pop() is deep


def test_control_beats_depth():
    q = ReadyQueue()
    deep = _ready("deep", depth=10)
    ctl = _ready("ctl", depth=0, control=True)
    q.push(deep)
    q.push(ctl)
    assert q.pop() is ctl


def test_pop_empty_returns_none():
    assert ReadyQueue().pop() is None
    assert ReadyQueue().peek() is None


def test_aborted_tasks_are_skipped():
    q = ReadyQueue()
    a, b = _ready("a"), _ready("b")
    q.push(a)
    q.push(b)
    a.request_abort()
    q.discard_aborted(a)
    assert len(q) == 1
    assert q.pop() is b
    assert q.pop() is None


def test_peek_does_not_remove():
    q = ReadyQueue()
    a = _ready("a")
    q.push(a)
    assert q.peek() is a
    assert len(q) == 1
    assert q.pop() is a


def test_len_tracks_live_entries():
    q = ReadyQueue()
    tasks = [_ready(f"t{i}") for i in range(5)]
    for t in tasks:
        q.push(t)
    assert len(q) == 5
    q.pop()
    assert len(q) == 4


def test_aborted_heap_head_skimmed_by_peek():
    """Aborting the heap head leaves a stale entry; peek must skim past it
    without disturbing the live count."""
    q = ReadyQueue()
    head = _ready("head", depth=9)  # highest priority: sits at the heap top
    rest = _ready("rest", depth=0)
    q.push(head)
    q.push(rest)
    head.request_abort()
    q.discard_aborted(head)
    assert len(q) == 1
    assert bool(q) is True
    assert q.peek() is rest  # skim dropped the aborted head lazily
    assert len(q) == 1  # peek never changes accounting
    assert q.pop() is rest
    assert len(q) == 0
    assert bool(q) is False


def test_abort_all_queued_leaves_empty_falsy_queue():
    q = ReadyQueue()
    tasks = [_ready(f"t{i}") for i in range(4)]
    for t in tasks:
        q.push(t)
    for t in tasks:
        t.request_abort()
        q.discard_aborted(t)
    assert len(q) == 0
    assert not q
    assert q.peek() is None
    assert q.pop() is None
    assert len(q) == 0  # popping an all-stale heap must not go negative


def test_interleaved_aborts_keep_len_consistent():
    q = ReadyQueue()
    a, b, c = _ready("a", depth=3), _ready("b", depth=2), _ready("c", depth=1)
    for t in (a, b, c):
        q.push(t)
    b.request_abort()
    q.discard_aborted(b)
    assert len(q) == 2
    assert q.pop() is a
    assert len(q) == 1
    c.request_abort()
    q.discard_aborted(c)
    assert len(q) == 0 and not q
    assert q.pop() is None
    # a fresh push after full drain restores normal service
    d = _ready("d")
    q.push(d)
    assert len(q) == 1 and q.pop() is d


def test_snapshot_only_ready():
    q = ReadyQueue()
    a, b = _ready("a"), _ready("b")
    q.push(a)
    q.push(b)
    b.request_abort()
    q.discard_aborted(b)
    assert [t.name for t in q.snapshot()] == ["a"]


def test_discard_after_pop_does_not_go_negative():
    """Regression: a READY task popped (e.g. parked for DMA staging) and
    only then aborted must not be double-discounted — len() went negative,
    which the queue-depth gauges turned into a ValueError mid-run."""
    q = ReadyQueue()
    a = _ready("a")
    q.push(a)
    assert q.pop() is a          # dispatched, but still state READY
    q.discard_aborted(a)         # abort lands after the pop
    assert len(q) == 0
    # and the accounting still balances for subsequent traffic
    b = _ready("b")
    q.push(b)
    assert len(q) == 1 and q.pop() is b and len(q) == 0


def test_discard_aborted_is_idempotent():
    q = ReadyQueue()
    a = _ready("a")
    q.push(a)
    q.discard_aborted(a)
    q.discard_aborted(a)
    assert len(q) == 0
