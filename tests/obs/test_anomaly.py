"""Unit tests for the end-of-run anomaly detectors."""

import pytest

from repro.obs.anomaly import AnomalyThresholds, detect_anomalies, scan_run
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry


def _ev(kind, t, task=None, **data):
    e = {"run_id": "r", "kind": kind, "seq": t, "t": float(t)}
    if task is not None:
        e["task"] = task
    e.update(data)
    return e


def _bracket(t0=0.0, t1=1_000_000.0):
    """Span-defining bookend events (1 s run)."""
    return [_ev("run_start", t0), _ev("run_end", t1)]


# ----------------------------------------------------------------------
# mis-speculation burst
# ----------------------------------------------------------------------
def test_burst_of_destroy_signals_flags():
    events = _bracket() + [_ev("destroy_signal", t)
                           for t in (100.0, 200.0, 300.0)]
    (anomaly,) = detect_anomalies(events)
    assert anomaly.kind == "misspec_burst"
    assert anomaly.data["rollbacks"] == 3
    assert "tolerance/step" in anomaly.message


def test_spread_out_destroys_do_not_flag():
    # 3 rollbacks, but spread over the full second (window is 25% of span)
    events = _bracket() + [_ev("destroy_signal", t)
                           for t in (0.0, 500_000.0, 999_999.0)]
    assert detect_anomalies(events) == []


def test_fewer_than_k_destroys_never_flags():
    events = _bracket() + [_ev("destroy_signal", 100.0),
                           _ev("destroy_signal", 101.0)]
    assert detect_anomalies(events) == []


# ----------------------------------------------------------------------
# ready-queue stall
# ----------------------------------------------------------------------
def test_long_ready_to_dispatch_wait_flags_worst_task():
    events = _bracket() + [
        _ev("task_ready", 10.0, task="fast"),
        _ev("task_dispatch", 20.0, task="fast"),
        _ev("task_ready", 100.0, task="slow"),
        _ev("task_dispatch", 500_000.0, task="slow"),   # 0.5 s wait
    ]
    (anomaly,) = detect_anomalies(events)
    assert anomaly.kind == "ready_stall"
    assert anomaly.data["task"] == "slow"
    assert anomaly.data["wait_us"] == 499_900.0


def test_short_waits_below_floor_do_not_flag():
    # tiny run: span-based threshold would be microscopic, the absolute
    # floor (50 ms) keeps fast sims quiet
    events = [_ev("task_ready", 0.0, task="a"),
              _ev("task_dispatch", 100.0, task="a")]
    assert detect_anomalies(events) == []


def test_worker_clock_events_are_excluded_from_time_detectors():
    # worker timestamps share no epoch with the coordinator; a merged
    # batch must not fabricate a stall or distort the span
    events = _bracket() + [
        _ev("task_ready", 10.0, task="x"),
        dict(_ev("task_dispatch", 900_000.0, task="x"), clock="worker"),
    ]
    assert detect_anomalies(events) == []


# ----------------------------------------------------------------------
# payload-budget pressure
# ----------------------------------------------------------------------
def _snapshot(budget, peak):
    reg = MetricsRegistry("repro")
    reg.gauge("procs_payload_budget_bytes", "budget").set(budget)
    reg.gauge("procs_payload_max_footprint_bytes", "peak").set(peak)
    return reg.snapshot()


def test_footprint_near_budget_flags():
    (anomaly,) = detect_anomalies([], _snapshot(1000, 900))
    assert anomaly.kind == "budget_pressure"
    assert anomaly.data == {"peak_bytes": 900.0, "budget_bytes": 1000.0}


def test_footprint_well_under_budget_is_quiet():
    assert detect_anomalies([], _snapshot(1000, 500)) == []


def test_no_budget_metric_is_quiet():
    assert detect_anomalies([], MetricsRegistry("repro").snapshot()) == []


def test_thresholds_are_tunable():
    th = AnomalyThresholds(budget_frac=0.4)
    (anomaly,) = detect_anomalies([], _snapshot(1000, 500), thresholds=th)
    assert anomaly.kind == "budget_pressure"


# ----------------------------------------------------------------------
# worker churn / harvest loss
# ----------------------------------------------------------------------
def test_worker_crash_flags_churn_with_recovery_tally():
    events = _bracket() + [
        _ev("worker_crash", 100, worker=0, reason="crash"),
        _ev("worker_crash", 200, worker=1, reason="hang"),
        _ev("worker_respawn", 110, worker=0),
        _ev("task_quarantine", 300, task="t"),
        _ev("worker_degraded", 400, worker=1),
    ]
    (anomaly,) = detect_anomalies(events)
    assert anomaly.kind == "worker_churn"
    assert anomaly.data["crashes"] == 2
    assert anomaly.data["causes"] == {"crash": 1, "hang": 1}
    assert anomaly.data["respawns"] == 1
    assert anomaly.data["quarantined"] == 1
    assert anomaly.data["degraded"] == 1
    assert "supervisor" in anomaly.message


def test_no_crashes_is_quiet():
    events = _bracket() + [_ev("worker_respawn", 100, worker=0)]
    assert detect_anomalies(events) == []


def test_crash_threshold_is_tunable():
    events = _bracket() + [_ev("worker_crash", 100, worker=0, reason="crash")]
    th = AnomalyThresholds(crash_k=2)
    assert detect_anomalies(events, thresholds=th) == []


def test_harvest_loss_flags():
    events = _bracket() + [
        _ev("worker_harvest_lost", 900, worker=1, reason="timeout")]
    (anomaly,) = detect_anomalies(events)
    assert anomaly.kind == "harvest_loss"
    assert anomaly.data["workers"] == [1]
    assert "under-report" in anomaly.message


def test_degraded_harvest_is_not_a_harvest_loss():
    # a degraded seat has no pipe by design: its shutdown bookkeeping entry
    # must not trip the harvest detector on top of the churn detector
    events = _bracket() + [
        _ev("worker_harvest_lost", 900, worker=1, reason="degraded")]
    assert detect_anomalies(events) == []


# ----------------------------------------------------------------------
# breaker flap (serve daemon event logs)
# ----------------------------------------------------------------------
def _opens(times, tenant="alice"):
    return [_ev("breaker_open", t, tenant=tenant) for t in times]


def test_breaker_flap_flags_tight_burst():
    events = _bracket(0.0, 120e6) + _opens([1e6, 2e6, 3e6])
    (anomaly,) = detect_anomalies(events)
    assert anomaly.kind == "breaker_flap"
    assert anomaly.data["tenant"] == "alice"
    assert anomaly.data["opens"] == 3
    assert anomaly.data["burst_us"] == pytest.approx(2e6)
    assert "crash-looping" in anomaly.message


def test_breaker_opens_spread_past_window_are_quiet():
    # 3 opens but 70 s apart pairwise: no 60 s window holds all three
    events = _bracket(0.0, 300e6) + _opens([0.0, 70e6, 140e6])
    assert detect_anomalies(events) == []


def test_breaker_opens_split_across_tenants_are_quiet():
    events = _bracket(0.0, 120e6) \
        + _opens([1e6, 2e6]) + _opens([1e6, 2e6], tenant="bob")
    assert detect_anomalies(events) == []


def test_breaker_flap_reports_worst_tenant():
    events = _bracket(0.0, 120e6) \
        + _opens([1e6, 2e6, 3e6]) \
        + _opens([1e6, 2e6, 3e6, 4e6], tenant="bob")
    (anomaly,) = detect_anomalies(events)
    assert anomaly.data["tenant"] == "bob"
    assert anomaly.data["opens"] == 4


def test_breaker_flap_thresholds_are_tunable():
    events = _bracket(0.0, 120e6) + _opens([1e6, 2e6])
    assert detect_anomalies(events) == []
    th = AnomalyThresholds(flap_k=2)
    (anomaly,) = detect_anomalies(events, thresholds=th)
    assert anomaly.kind == "breaker_flap"


# ----------------------------------------------------------------------
# scan_run
# ----------------------------------------------------------------------
def test_scan_run_emits_anomaly_events_and_returns_warnings():
    log = EventLog("r")
    log.set_clock(iter([0.0, 100.0, 200.0, 300.0, 1_000_000.0,
                        1_000_001.0]).__next__)
    for _ in range(4):
        log.emit("destroy_signal")
    log.emit("run_end")
    warnings = scan_run(log)
    assert len(warnings) == 1 and warnings[0].startswith("misspec_burst:")
    kinds = [e["kind"] for e in log.events()]
    assert kinds[-1] == "anomaly_misspec_burst"


def test_scan_run_on_disabled_log_is_empty():
    assert scan_run(EventLog("r", enabled=False)) == []
