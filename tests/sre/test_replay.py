"""Unit tests for the replay machinery: schedule extraction, cascade
accounting, config reconstruction and director divergence bookkeeping.

End-to-end record→replay runs live in tests/integration/test_replay.py;
these tests exercise the pure pieces on synthetic event streams.
"""

import pytest

from repro.errors import ReplayDivergence, ReplayError
from repro.sre.replay import (
    CascadeSummary,
    ReplayDirector,
    config_from_header,
    decision_signature,
    extract_schedule,
    render_diff,
)


def _ev(kind, seq, **kw):
    return {"kind": kind, "seq": seq, "t": float(seq), **kw}


_ROLLBACK_RUN = [
    _ev("task_spawn", 1, task="count:0"),
    _ev("spec_predict", 2, version=1, index=1),
    _ev("spec_launch", 3, version=1, index=1),
    _ev("check_fail", 4, version=1, index=8, error=0.5),
    _ev("destroy_signal", 5, version=1),
    _ev("rollback_done", 6, version=1, tasks_destroyed=7,
        buffer_discarded=3, wasted_us=120.0),
    _ev("spec_launch", 7, version=2, index=8, reused=True),
    _ev("check_pass", 8, version=2, index=16, error=0.001),
    _ev("check_pass", 9, version=2, error=0.0, final=True),
    _ev("spec_commit", 10, version=2, lifetime_us=500.0),
    _ev("run_result", 11, outcome="commit", compressed_bits=4096,
        output_sha256="ab" * 32),
]


def test_extract_schedule_gate_kinds_and_order():
    sched = extract_schedule(_ROLLBACK_RUN)
    assert [g.kind for g in sched.gates] == [
        "predict", "launch", "verdict", "respec", "verdict", "final_verdict"]
    assert [g.pos for g in sched.gates] == list(range(6))
    assert sched.gates[2].outcome == "fail"
    assert sched.gates[2].error == 0.5
    assert sched.gates[-1].kind == "final_verdict"
    assert sched.outcome == "commit"
    assert sched.commit_version == 2
    assert sched.run_result["output_sha256"] == "ab" * 32
    assert len(sched) == 6


def test_extract_schedule_skips_worker_clock_events():
    events = [_ev("spec_predict", 2, version=1, index=1, clock="worker")]
    assert len(extract_schedule(events)) == 0


def test_decision_signature_ignores_timing_fields():
    a = decision_signature(_ROLLBACK_RUN)
    # same decisions, different seqs/times/footprints → equal signature
    shifted = [dict(e, seq=e["seq"] + 100, t=e["t"] * 7) for e in _ROLLBACK_RUN]
    shifted[5]["tasks_destroyed"] = 99
    assert decision_signature(shifted) == a
    # a flipped verdict → different signature
    flipped = [dict(e) for e in _ROLLBACK_RUN]
    flipped[7]["kind"] = "check_fail"
    assert decision_signature(flipped) != a


def test_cascade_summary_counts():
    s = CascadeSummary.from_events(_ROLLBACK_RUN + [
        _ev("shm_release", 12, reason="rollback", nbytes=4096),
        _ev("shm_release", 13, reason="commit", nbytes=1),
        _ev("worker_crash", 14, worker=0),
        _ev("task_retry", 15, task="x"),
    ])
    assert s.speculations == 2  # predict + reused launch
    assert s.checks_passed == 2 and s.checks_failed == 1
    assert s.rollbacks == 1
    assert s.tasks_destroyed == 7 and s.buffer_discarded == 3
    assert s.wasted_us == 120.0
    assert s.shm_rollback_bytes == 4096  # commit-release excluded
    assert s.worker_crashes == 1 and s.task_retries == 1
    assert s.commits == 1 and s.recomputes == 0
    assert s.outcome == "commit"
    assert s.compressed_bits == 4096
    assert s.output_sha256 == "ab" * 32


def test_render_diff_shows_delta_and_truncates_digests():
    a = CascadeSummary(rollbacks=1, wasted_us=100.0, output_sha256="a" * 64)
    b = CascadeSummary(rollbacks=3, wasted_us=250.0, output_sha256="b" * 64)
    text = render_diff(a, b)
    assert "recorded" in text and "counterfactual" in text
    assert "+2" in text      # rollbacks delta
    assert "+150" in text    # wasted µs delta
    assert "a" * 64 not in text  # digests truncated for the table
    assert "≠" in text       # non-numeric mismatch marker


def test_config_from_header_requires_run_config():
    with pytest.raises(ReplayError, match="run_config"):
        config_from_header({"kind": "log_header"})
    with pytest.raises(ReplayError, match="run_config"):
        config_from_header(None)


def test_config_from_header_rejects_custom_workload():
    header = {"meta": {"run_config": {"workload": "custom"}}}
    with pytest.raises(ReplayError, match="raw-bytes"):
        config_from_header(header)


def test_config_from_header_applies_overrides_and_redirects_outputs():
    header = {"meta": {"run_config": {
        "workload": "txt", "n_blocks": 16, "policy": "balanced",
        "tolerance": 0.01, "trace": True, "metrics_out": "m.prom"}}}
    cfg = config_from_header(header, overrides={"policy": "aggressive",
                                                "tolerance": None})
    assert cfg.policy == "aggressive"
    assert cfg.tolerance == 0.01     # None override ignored
    assert cfg.metrics_out is None   # side outputs redirected
    assert cfg.events is True


def test_config_from_header_drops_the_retired_trace_key():
    # Logs recorded before RunConfig lost its ``trace`` field still
    # carry it in the header; replay must still build a config from them.
    header = {"kind": "log_header", "schema": "repro.events",
              "schema_version": 1, "run_id": "0123abcd", "seq": 0, "t": 0.0,
              "meta": {"app": "huffman", "run_config": {
                  "app": "huffman", "workload": "pdf", "n_blocks": 16,
                  "tolerance": 0.0, "seed": 0, "trace": False,
                  "events": True, "events_out": "old.events.jsonl"}}}
    cfg = config_from_header(header)
    assert (cfg.workload, cfg.n_blocks, cfg.tolerance) == ("pdf", 16, 0.0)
    assert cfg.events_out is None
    assert "trace" not in cfg.to_dict()


@pytest.mark.parametrize("retired", [
    # RunConfig's work-stealing switch.
    {"steal": False},
    # The supervisor knobs that became executor_procs constants.
    {"max_task_retries": 2, "retry_backoff_s": 0.05,
     "max_worker_respawns": 3, "harvest_timeout_s": 2.0},
], ids=["steal", "supervisor"])
def test_config_from_header_drops_the_retired_steal_key(retired):
    # Logs recorded while RunConfig still had these fields carry them in
    # the header; replay must still build a config.
    header = {"kind": "log_header", "schema": "repro.events",
              "schema_version": 1, "run_id": "4567cdef", "seq": 0, "t": 0.0,
              "meta": {"app": "huffman", "run_config": {
                  "app": "huffman", "workload": "txt", "n_blocks": 24,
                  "tolerance": 0.0, "seed": 3, "executor": "procs",
                  "workers": 2, "dispatch_timeout_s": 60.0,
                  "events": True, "events_out": "old.events.jsonl",
                  **retired}}}
    cfg = config_from_header(header)
    assert (cfg.workload, cfg.n_blocks, cfg.seed) == ("txt", 24, 3)
    assert (cfg.executor, cfg.workers) == ("procs", 2)
    assert cfg.events_out is None
    assert not set(retired) & set(cfg.to_dict())


def test_config_from_header_drops_the_retired_queue_order_keys():
    # Logs recorded while the ready-queue order was configurable carry
    # ``depth_first`` / ``control_first``; both were always True.
    header = {"kind": "log_header", "schema": "repro.events",
              "schema_version": 1, "run_id": "89ab0123", "seq": 0, "t": 0.0,
              "meta": {"app": "huffman", "run_config": {
                  "app": "huffman", "workload": "pdf", "n_blocks": 16,
                  "tolerance": 0.0, "seed": 0, "depth_first": True,
                  "control_first": True, "events": True}}}
    cfg = config_from_header(header)
    assert (cfg.workload, cfg.n_blocks) == ("pdf", 16)
    assert not {"depth_first", "control_first"} & set(cfg.to_dict())


def test_director_finish_names_first_unconsumed_gate():
    sched = extract_schedule(_ROLLBACK_RUN)
    director = ReplayDirector(sched)
    with pytest.raises(ReplayDivergence) as exc:
        director.finish()
    assert exc.value.seq == 2        # the spec_predict event's seq
    assert "never reached" in str(exc.value)


def test_director_recorded_divergence_wins_over_unconsumed():
    director = ReplayDirector(extract_schedule(_ROLLBACK_RUN))
    director._note("error drifted", 4)
    with pytest.raises(ReplayDivergence) as exc:
        director.finish()
    assert exc.value.seq == 4
    assert "error drifted" in str(exc.value)


def test_director_first_divergence_is_kept():
    director = ReplayDirector(extract_schedule(_ROLLBACK_RUN))
    director._note("first", 4)
    director._note("second", 8)
    assert director.divergence.seq == 4


def test_director_refuses_second_speculation_domain():
    director = ReplayDirector(extract_schedule(_ROLLBACK_RUN))
    director.bind(object())
    with pytest.raises(ReplayError, match="one speculation domain"):
        director.bind(object())


def test_empty_schedule_finishes_clean():
    director = ReplayDirector(extract_schedule([]))
    director.finish()  # nothing recorded, nothing owed
