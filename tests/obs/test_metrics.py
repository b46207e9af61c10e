"""Unit tests for the metrics instruments and registry."""

import sys
import threading

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_US,
    MetricsRegistry,
)


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
def test_counter_inc_and_value():
    reg = MetricsRegistry()
    c = reg.counter("hits", "hits served")
    assert c.value() == 0
    c.inc()
    c.inc(3)
    assert c.value() == 4
    assert reg.value("hits") == 4


def test_counter_rejects_negative():
    c = MetricsRegistry().counter("hits")
    with pytest.raises(ObservabilityError):
        c.inc(-1)


def test_counter_labels_are_independent_series():
    reg = MetricsRegistry()
    c = reg.counter("tasks", "tasks run", labelnames=("kind",))
    c.labels(kind="encode").inc(2)
    c.labels(kind="count").inc()
    assert reg.value("tasks", kind="encode") == 2
    assert reg.value("tasks", kind="count") == 1
    # same label set returns the same child
    assert c.labels(kind="encode") is c.labels(kind="encode")


def test_labelled_metric_rejects_default_series():
    c = MetricsRegistry().counter("tasks", labelnames=("kind",))
    with pytest.raises(ObservabilityError):
        c.inc()


def test_labels_must_match_declaration():
    c = MetricsRegistry().counter("tasks", labelnames=("kind",))
    with pytest.raises(ObservabilityError):
        c.labels(wrong="x")
    with pytest.raises(ObservabilityError):
        c.labels(kind="x", extra="y")


@pytest.mark.parametrize("race", ["counter", "histogram", "merge"])
def test_counter_concurrent_increments_are_not_lost(race):
    """8 threads x 1000 writes to one series lose none: counter
    increments, histogram observations, or worker snapshots merged while
    local threads write the same series."""
    reg = MetricsRegistry()
    hits = reg.counter("hits")
    lat = reg.histogram("lat", buckets=(10,))
    worker = MetricsRegistry()
    worker.counter("hits").inc()
    worker.histogram("lat", buckets=(10,)).observe(5)
    snap = worker.snapshot()

    def local():
        hits.inc()
        lat.observe(5)

    writes = {
        "counter": [hits.inc] * 8,
        "histogram": [lambda: lat.observe(5)] * 8,
        "merge": [local, lambda: reg.merge_snapshot(snap)] * 4,
    }[race]

    def run(write):
        for _ in range(1000):
            write()

    threads = [threading.Thread(target=run, args=(w,)) for w in writes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-write as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    if race != "histogram":
        assert hits.value() == 8000
    if race != "counter":
        assert lat._default_child().raw() == ([8000, 0], 40000.0, 8000)


# ----------------------------------------------------------------------
# gauges
# ----------------------------------------------------------------------
def test_gauge_set_inc_dec():
    g = MetricsRegistry().gauge("depth")
    g.set(3)
    g.inc()
    g.dec(2)
    assert g.value() == 2


def test_gauge_external_merge_takes_max():
    reg = MetricsRegistry()
    g = reg.gauge("inflight")
    g.set(2)
    other = MetricsRegistry()
    other.gauge("inflight").set(5)
    reg.merge_snapshot(other.snapshot())
    assert g.value() == 5
    # a later, smaller external level does not lower the reported max
    third = MetricsRegistry()
    third.gauge("inflight").set(1)
    reg.merge_snapshot(third.snapshot())
    assert g.value() == 5


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------
def test_histogram_bucketing_and_moments():
    h = MetricsRegistry().histogram("svc", buckets=(10, 100))
    for v in (7, 70, 700):
        h.observe(v)
    counts, total, n = h._default_child().raw()
    assert counts == [1, 1, 1]  # <=10, <=100, +Inf
    assert total == 777
    assert n == 3
    assert h.count() == 3
    assert h.sum() == 777
    assert h.mean() == pytest.approx(259.0)


def test_histogram_boundary_value_lands_in_lower_bucket():
    h = MetricsRegistry().histogram("svc", buckets=(10, 100))
    h.observe(10)  # le="10" is inclusive, Prometheus-style
    counts, _, _ = h._default_child().raw()
    assert counts == [1, 0, 0]


def test_histogram_default_buckets():
    h = MetricsRegistry().histogram("lat")
    assert h.buckets == DEFAULT_LATENCY_BUCKETS_US


def test_histogram_rejects_non_increasing_buckets():
    reg = MetricsRegistry()
    with pytest.raises(ObservabilityError):
        reg.histogram("bad", buckets=(10, 10))
    with pytest.raises(ObservabilityError):
        reg.histogram("bad2", buckets=(5, 3))
    # empty bucket list means "use the defaults", not an error
    assert reg.histogram("dflt", buckets=()).buckets == DEFAULT_LATENCY_BUCKETS_US


def test_histogram_timer_uses_supplied_clock():
    h = MetricsRegistry().histogram("span_us", buckets=(10, 100))
    fake = iter([100.0, 170.0])
    with h.time(clock=lambda: next(fake)):
        pass
    assert h.count() == 1
    assert h.sum() == 70.0


def test_histogram_mean_empty_is_zero():
    assert MetricsRegistry().histogram("h", buckets=(1,)).mean() == 0.0


# ----------------------------------------------------------------------
# registry semantics
# ----------------------------------------------------------------------
def test_registry_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    assert reg.counter("c") is reg.counter("c")
    assert reg.gauge("g") is reg.gauge("g")
    assert reg.histogram("h") is reg.histogram("h")


def test_registry_type_clash_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ObservabilityError):
        reg.gauge("x")


def test_registry_labelname_clash_raises():
    reg = MetricsRegistry()
    reg.counter("x", labelnames=("a",))
    with pytest.raises(ObservabilityError):
        reg.counter("x", labelnames=("b",))


def test_registry_introspection():
    reg = MetricsRegistry("ns")
    reg.counter("b")
    reg.gauge("a")
    assert reg.names() == ["a", "b"]
    assert "a" in reg and "zzz" not in reg
    assert reg.get("b").kind == "counter"
    with pytest.raises(ObservabilityError):
        reg.value("zzz")


def test_snapshot_is_json_able_and_detached():
    import json

    reg = MetricsRegistry("ns")
    reg.counter("c").inc(2)
    reg.histogram("h", buckets=(1, 2)).observe(1.5)
    snap = reg.snapshot()
    json.dumps(snap)  # must not raise
    reg.counter("c").inc(10)
    # the snapshot is a point-in-time copy, not a live view
    c_series = next(m for m in snap["metrics"] if m["name"] == "c")["series"]
    assert c_series[0]["value"] == 2


# ----------------------------------------------------------------------
# cross-registry merging
# ----------------------------------------------------------------------
def test_merge_snapshot_adds_counters_and_histograms():
    a = MetricsRegistry()
    a.counter("done", labelnames=("kind",)).labels(kind="x").inc(3)
    a.histogram("lat", buckets=(10,)).observe(5)

    b = MetricsRegistry()
    b.counter("done", labelnames=("kind",)).labels(kind="x").inc(4)
    b.counter("done", labelnames=("kind",)).labels(kind="y").inc(1)
    b.histogram("lat", buckets=(10,)).observe(50)

    a.merge_snapshot(b.snapshot())
    assert a.value("done", kind="x") == 7
    assert a.value("done", kind="y") == 1
    h = a.get("lat")
    assert h.count() == 2
    assert h.sum() == 55


def test_merge_snapshot_creates_missing_metrics():
    a = MetricsRegistry()
    b = MetricsRegistry()
    b.counter("only_in_b").inc(9)
    a.merge_snapshot(b.snapshot())
    assert a.value("only_in_b") == 9


def test_merge_snapshot_is_repeatable_accumulation():
    """Merging two worker snapshots one after the other adds both."""
    coord = MetricsRegistry()
    for amount in (2, 5):
        w = MetricsRegistry()
        w.counter("tasks").inc(amount)
        coord.merge_snapshot(w.snapshot())
    assert coord.value("tasks") == 7


def test_merge_histogram_bucket_mismatch_raises():
    a = MetricsRegistry()
    a.histogram("h", buckets=(1, 2)).observe(1)
    b = MetricsRegistry()
    b.histogram("h", buckets=(1, 2, 3)).observe(1)
    with pytest.raises(ObservabilityError):
        a.merge_snapshot(b.snapshot())


def test_merge_snapshot_leaves_the_source_untouched():
    a = MetricsRegistry()
    a.counter("c").inc(1)
    a.gauge("g").set(2)
    b = MetricsRegistry()
    b.counter("c").inc(2)
    b.gauge("g").set(5)
    b_snap = b.snapshot()
    a.merge_snapshot(b_snap)
    assert a.value("c") == 3
    assert a.value("g") == 5
    # the merged snapshot and its registry are untouched
    assert b_snap == b.snapshot()
    assert b.value("c") == 2


# ----------------------------------------------------------------------
# the shared monotonic clock (timer default)
# ----------------------------------------------------------------------
def test_timer_default_clock_is_immune_to_wall_clock_jumps(monkeypatch):
    import time as time_mod
    from repro.obs import metrics as metrics_mod
    # Simulate an NTP step: time.time() jumps 1 hour backwards. The timer
    # must not record a negative (or hour-long) duration because its
    # default clock is MONOTONIC_CLOCK, not the wall clock.
    wall = iter([1_000_000.0, 1_000_000.0 - 3600.0])
    monkeypatch.setattr(time_mod, "time", lambda: next(wall))
    assert metrics_mod.MONOTONIC_CLOCK is time_mod.perf_counter
    reg = MetricsRegistry()
    h = reg.histogram("dur_s", buckets=(0.5, 1.0))
    with h.time():
        pass
    assert 0 <= h.sum() < 1.0
    assert h.count() == 1


def test_event_log_timestamps_share_the_timer_clock():
    # satellite: one clock threaded through events and histogram timers,
    # so a timer observation can be placed on the event timeline
    from repro.obs import metrics as metrics_mod
    from repro.obs.events import default_clock
    lo = metrics_mod.MONOTONIC_CLOCK() * 1e6
    mid = default_clock()
    hi = metrics_mod.MONOTONIC_CLOCK() * 1e6
    assert lo <= mid <= hi


def test_timer_accepts_explicit_clock():
    reg = MetricsRegistry()
    h = reg.histogram("dur", buckets=(10.0,))
    ticks = iter([100.0, 107.0])
    with h.time(clock=lambda: next(ticks)):
        pass
    assert h.sum() == 7.0
