"""Unit tests for rollback-cascade reconstruction (`repro explain`)."""

from repro.obs.events import COORDINATOR_WORKER
from repro.obs.explain import (build_cascades, explain_events, explain_path,
                               format_lanes)


def _cascade_events(version=1, run_id="r1"):
    """A synthetic mis-speculation: predict → launch → fail → destroy."""
    return [
        {"run_id": run_id, "kind": "spec_predict", "version": version,
         "seq": 1, "t": 0.0},
        {"run_id": run_id, "kind": "spec_launch", "version": version,
         "cause": 1, "seq": 2, "t": 5.0},
        {"run_id": run_id, "kind": "task_spawn", "task": "enc:0",
         "cause": 2, "seq": 3, "t": 6.0},
        {"run_id": run_id, "kind": "check_fail", "version": version,
         "cause": 2, "error": 0.5, "tolerance": 0.01, "final": True,
         "seq": 4, "t": 50.0},
        {"run_id": run_id, "kind": "destroy_signal", "version": version,
         "cause": 4, "seq": 5, "t": 51.0},
        {"run_id": run_id, "kind": "task_abort", "task": "enc:0",
         "cause": 5, "while_running": True, "ran_us": 44.0,
         "seq": 6, "t": 52.0},
        {"run_id": run_id, "kind": "task_abort", "task": "enc:1",
         "cause": 5, "seq": 7, "t": 52.5},
        {"run_id": run_id, "kind": "buffer_discard", "key": "0",
         "cause": 5, "seq": 8, "t": 53.0},
        {"run_id": run_id, "kind": "shm_release", "reason": "rollback",
         "refs": 3, "nbytes": 12288, "cause": 5, "seq": 9, "t": 54.0},
        {"run_id": run_id, "kind": "shm_release", "reason": "commit",
         "refs": 1, "nbytes": 4096, "cause": 5, "seq": 10, "t": 54.5},
        {"run_id": run_id, "kind": "rollback_done", "version": version,
         "tasks_destroyed": 2, "buffer_discarded": 1, "wasted_us": 44.0,
         "cause": 5, "seq": 11, "t": 55.0},
        # rebuild: re-speculation caused by the failed check, not the signal
        {"run_id": run_id, "kind": "spec_launch", "version": version + 1,
         "reused": True, "cause": 4, "seq": 12, "t": 60.0},
    ]


def test_build_cascades_partitions_children_by_kind():
    (cascade,) = build_cascades(_cascade_events())
    assert cascade.version == 1
    assert [e["task"] for e in cascade.aborts] == ["enc:0", "enc:1"]
    assert len(cascade.discards) == 1
    assert len(cascade.releases) == 2
    assert cascade.tasks_destroyed == 2
    assert cascade.buffer_discarded == 1
    assert cascade.wasted_us == 44.0


def test_root_chain_walks_to_spec_predict():
    (cascade,) = build_cascades(_cascade_events())
    assert [e["kind"] for e in cascade.root_chain] == [
        "check_fail", "spec_launch", "spec_predict"]


def test_freed_bytes_counts_only_rollback_releases():
    (cascade,) = build_cascades(_cascade_events())
    assert cascade.freed_bytes == 12288   # the commit release is excluded
    assert cascade.freed_refs == 3


def test_rebuild_found_via_shared_check_fail_cause():
    (cascade,) = build_cascades(_cascade_events())
    assert [e["version"] for e in cascade.rebuilds] == [2]


def test_version_filter_selects_one_cascade():
    events = _cascade_events(version=1)
    shifted = [dict(e, seq=e["seq"] + 100,
                    **({"cause": e["cause"] + 100} if "cause" in e else {}))
               for e in _cascade_events(version=7)]
    all_events = events + shifted
    assert len(build_cascades(all_events)) == 2
    (only,) = build_cascades(all_events, version=7)
    assert only.version == 7


def test_format_report_mentions_root_cause_and_totals():
    text = explain_events(_cascade_events())
    assert "run r1 — 1 rollback cascade(s)" in text
    assert "final check on v1 (error 0.5 > tolerance 0.01)" in text
    assert "spec_predict(seq 1) → spec_launch(seq 2) → check_fail(seq 4)" in text
    assert "destroyed: 2 task(s), 1 buffered entr(ies)" in text
    assert "shm released (rollback): 3 ref(s), 12288 B" in text
    assert "enc:0 (reaped while running, 44 µs sunk)" in text
    assert "rebuild: spec_launch v2 (reused candidate)" in text
    assert "totals: 2 tasks destroyed · 12288 B shm freed" in text


def test_no_cascades_renders_cleanly():
    assert "0 rollback cascade(s)" in explain_events(
        [{"run_id": "r", "kind": "task_spawn", "seq": 1, "t": 0.0}])


def test_destroy_without_check_fail_reports_missing_root():
    events = [{"run_id": "r", "kind": "destroy_signal", "version": 3,
               "seq": 1, "t": 0.0}]
    text = explain_events(events)
    assert "rollback without a failed check" in text


def test_explain_path_roundtrips_jsonl(tmp_path):
    import json
    path = tmp_path / "run.events.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in _cascade_events()))
    assert "1 rollback cascade(s)" in explain_path(str(path))


# ----------------------------------------------------------------------
# worker-crash cascades
# ----------------------------------------------------------------------

def _crash_events(seq0=0):
    """A crash whose replacement also died; second death quarantines.

    The follow-on crash's ``cause`` edge points at the root crash — the
    ambient cause scope the recovery path holds when it fires.
    """
    s = seq0
    return [
        {"run_id": "r", "kind": "worker_crash", "worker": 0,
         "reason": "crash", "exitcode": -9, "inflight": 2,
         "tasks": ["enc:0", "enc:1"], "seq": s + 1, "t": 10.0},
        {"run_id": "r", "kind": "worker_respawn", "worker": 0,
         "incarnation": 1, "respawns": 1, "cause": s + 1,
         "seq": s + 2, "t": 11.0},
        {"run_id": "r", "kind": "task_retry", "task": "enc:0", "worker": 0,
         "attempt": 1, "cause": s + 1, "seq": s + 3, "t": 12.0},
        {"run_id": "r", "kind": "worker_crash", "worker": 0,
         "reason": "crash", "exitcode": -9, "inflight": 1,
         "tasks": ["enc:0"], "cause": s + 1, "seq": s + 4, "t": 13.0},
        {"run_id": "r", "kind": "worker_respawn", "worker": 0,
         "incarnation": 2, "respawns": 2, "cause": s + 4,
         "seq": s + 5, "t": 14.0},
        {"run_id": "r", "kind": "task_quarantine", "task": "enc:0",
         "attempts": 2, "cause": s + 4, "seq": s + 6, "t": 15.0},
        {"run_id": "r", "kind": "shm_release", "reason": "crash",
         "refs": 2, "nbytes": 8192, "freed": True, "cause": s + 4,
         "seq": s + 7, "t": 16.0},
    ]


def test_crash_cascades_fold_follow_on_crashes_into_the_root():
    from repro.obs.explain import build_crash_cascades

    cascades = build_crash_cascades(_crash_events())
    assert len(cascades) == 1  # the second crash is not its own root
    c = cascades[0]
    assert c.worker == 0 and c.reason == "crash"
    assert len(c.follow_on) == 1
    assert len(c.respawns) == 2  # both incarnations' respawns fold in
    assert [q["task"] for q in c.quarantines] == ["enc:0"]
    assert c.crash_freed_bytes == 8192


def test_explain_renders_crash_section_after_rollbacks():
    # offset the crash events' seq space past the rollback fixture's
    events = _cascade_events() + _crash_events(seq0=100)
    text = explain_events(events)
    assert "1 rollback cascade(s)" in text
    assert "worker-crash cascade" in text
    assert "quarantined: enc:0" in text
    assert "8192 B force-freed" in text


def test_explain_without_crashes_has_no_crash_section():
    text = explain_events(_cascade_events())
    assert "worker-crash" not in text


def _lane_events():
    return [
        {"seq": 1, "kind": "task_spawn", "task": "count:0", "task_kind": "count"},
        {"seq": 2, "kind": "task_spawn", "task": "reduce:0", "task_kind": "reduce"},
        {"seq": 3, "kind": "task_spawn", "task": "h:check:u1:v1", "task_kind": "check"},
        {"seq": 4, "kind": "task_done", "task": "count:0", "worker": 0, "dur_us": 4000.0},
        {"seq": 5, "kind": "task_done", "task": "reduce:0",
         "worker": COORDINATOR_WORKER, "dur_us": 150.0},
        {"seq": 6, "kind": "task_done", "task": "h:check:u1:v1",
         "worker": COORDINATOR_WORKER, "dur_us": 50.0},
    ]


def test_explain_ends_with_the_coordinator_lane():
    text = explain_events(_lane_events())
    lanes = text.split("task lanes\n", 1)[1].splitlines()
    assert lanes[0].split() == ["worker", "0", "1", "task(s)", "4.0", "ms",
                                "busy", "(count", "1)"]
    assert lanes[1].split()[:5] == ["coordinator", "2", "task(s)", "0.2", "ms"]
    assert lanes[1].endswith("(check 1 · reduce 1)")


def test_explain_without_coordinator_tasks_has_no_lane_section():
    events = [e for e in _lane_events() if e.get("worker") != COORDINATOR_WORKER]
    assert format_lanes(events) == ""
    assert "task lanes" not in explain_events(_cascade_events())
