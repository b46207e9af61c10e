"""Unit tests for the wait buffer (side-effect barrier)."""

from collections import Counter

import pytest

from repro.core.wait import WaitBuffer
from repro.errors import SpeculationError
from repro.obs.events import EventLog


def _buffer():
    flushed = []
    buf = WaitBuffer(sink=lambda k, v, t: flushed.append((k, v, t)))
    return buf, flushed


def test_deposit_is_held_until_commit():
    buf, flushed = _buffer()
    buf.deposit(1, "b0", "payload", now=5.0)
    assert flushed == []
    assert buf.pending(1) == 1


def test_commit_flushes_in_key_order():
    buf, flushed = _buffer()
    buf.deposit(1, 2, "two", 1.0)
    buf.deposit(1, 0, "zero", 2.0)
    buf.deposit(1, 1, "one", 3.0)
    n = buf.commit(1, now=10.0)
    assert n == 3
    assert [k for k, _, _ in flushed] == [0, 1, 2]
    assert all(t == 10.0 for _, _, t in flushed)


def test_commit_flushes_integer_keys_numerically_beyond_nine():
    """Regression: repr-sorted flushes wrote block 10 before block 2,
    corrupting any container with more than 9 buffered blocks."""
    buf, flushed = _buffer()
    order = [7, 10, 0, 11, 3, 1, 9, 2, 8, 5, 4, 6]
    for block in order:
        buf.deposit(1, block, f"payload-{block}", now=float(block))
    assert buf.commit(1, now=20.0) == 12
    assert [k for k, _, _ in flushed] == list(range(12))
    assert [v for _, v, _ in flushed] == [f"payload-{k}" for k in range(12)]


def test_commit_flush_order_mixed_key_types_is_deterministic():
    buf_a, flushed_a = _buffer()
    buf_b, flushed_b = _buffer()
    for buf in (buf_a, buf_b):
        buf.deposit(1, 2, "int", 0.0)
        buf.deposit(1, "b", "str", 0.0)
        buf.deposit(1, 10, "int", 0.0)
        buf.deposit(1, "a", "str", 0.0)
    buf_a.commit(1, 1.0)
    buf_b.commit(1, 1.0)
    keys = [k for k, _, _ in flushed_a]
    assert keys == [k for k, _, _ in flushed_b]
    # comparable subsets still flush in their own order
    assert keys.index(2) < keys.index(10)
    assert keys.index("a") < keys.index("b")


def test_post_commit_deposits_flush_immediately():
    buf, flushed = _buffer()
    buf.commit(3, now=1.0)
    buf.deposit(3, "late", "v", now=2.0)
    assert flushed == [("late", "v", 2.0)]


def test_discard_drops_version():
    buf, flushed = _buffer()
    buf.deposit(1, "a", 1, 0.0)
    buf.deposit(2, "b", 2, 0.0)
    assert buf.discard(1) == 1
    assert buf.pending(1) == 0
    assert buf.pending(2) == 1
    buf.commit(2, 5.0)
    assert [k for k, _, _ in flushed] == ["b"]


def test_double_commit_rejected():
    buf, _ = _buffer()
    buf.commit(1, 0.0)
    with pytest.raises(SpeculationError):
        buf.commit(2, 0.0)


def test_duplicate_key_overwrites():
    buf, flushed = _buffer()
    buf.deposit(1, "k", "old", 0.0)
    buf.deposit(1, "k", "new", 1.0)
    buf.commit(1, 2.0)
    assert flushed == [("k", "new", 2.0)]


def _kinds(log):
    return Counter(e["kind"] for e in log.events())


def test_counters():
    """Deposits, flushes and discards are counted off the buffer_* events."""
    log = EventLog("r")
    buf = WaitBuffer(events=log)
    buf.deposit(1, "a", 1, 0.0)
    buf.deposit(2, "b", 2, 0.0)
    buf.discard(2)
    buf.commit(1, 0.0)
    buf.deposit(1, "c", 3, 0.0)  # post-commit: flushes straight through
    kinds = _kinds(log)
    passthrough = sum(e.get("passthrough", False) for e in log.events())
    assert kinds["buffer_deposit"] + passthrough == 3
    assert kinds["buffer_discard"] == 1
    assert kinds["buffer_flush"] == 2


def test_sinkless_buffer_counts_flushes():
    log = EventLog("r")
    buf = WaitBuffer(events=log)
    buf.deposit(1, "a", 1, 0.0)
    buf.commit(1, 0.0)
    assert _kinds(log)["buffer_flush"] == 1
