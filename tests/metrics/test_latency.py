"""Unit tests for the latency collector."""

import numpy as np
import pytest

from repro.core.stream import LatencyCollector
from repro.errors import ExperimentError


def test_basic_latency():
    c = LatencyCollector()
    c.record_arrival(0, 10.0)
    c.record_arrival(1, 20.0)
    c.record_encode(0, 50.0, None)
    c.record_encode(1, 45.0, None)
    lat = c.latencies({None})
    assert list(lat) == [40.0, 25.0]


def test_double_arrival_rejected():
    c = LatencyCollector()
    c.record_arrival(0, 1.0)
    with pytest.raises(ExperimentError):
        c.record_arrival(0, 2.0)


def test_rolled_back_encodes_excluded():
    c = LatencyCollector()
    c.record_arrival(0, 0.0)
    c.record_encode(0, 10.0, version=1)   # rolled back later
    c.record_encode(0, 30.0, version=2)   # committed
    lat = c.latencies({2})
    assert list(lat) == [30.0]
    assert c.wasted_encodes({2}) == 1


def test_missing_valid_encode_raises():
    c = LatencyCollector()
    c.record_arrival(0, 0.0)
    c.record_encode(0, 10.0, version=1)
    with pytest.raises(ExperimentError):
        c.latencies({None})


def test_two_valid_encodes_raises():
    c = LatencyCollector()
    c.record_arrival(0, 0.0)
    c.record_encode(0, 10.0, None)
    c.record_encode(0, 20.0, None)
    with pytest.raises(ExperimentError):
        c.latencies({None})


def test_series_ordered_by_block_id():
    c = LatencyCollector()
    for block, t in ((2, 3.0), (0, 1.0), (1, 2.0)):
        c.record_arrival(block, t)
        c.record_encode(block, t + 10.0, None)
    assert list(c.arrivals()) == [1.0, 2.0, 3.0]
    assert list(c.completions({None})) == [11.0, 12.0, 13.0]


def test_commit_latencies():
    c = LatencyCollector()
    c.record_arrival(0, 5.0)
    c.record_encode(0, 10.0, None)
    c.record_commit(0, 25.0)
    assert list(c.commit_latencies()) == [20.0]


def test_commit_missing_raises():
    c = LatencyCollector()
    c.record_arrival(0, 5.0)
    with pytest.raises(ExperimentError):
        c.commit_latencies()


def test_encode_attempts_history():
    c = LatencyCollector()
    c.record_arrival(0, 0.0)
    c.record_encode(0, 1.0, 1)
    c.record_encode(0, 2.0, 2)
    assert c.encode_attempts(0) == [(1.0, 1), (2.0, 2)]
    assert c.encode_attempts(5) == []


def test_n_blocks():
    c = LatencyCollector()
    assert c.n_blocks == 0
    c.record_arrival(0, 0.0)
    assert c.n_blocks == 1
