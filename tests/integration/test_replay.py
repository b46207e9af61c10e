"""End-to-end deterministic replay: record → replay → byte identity.

The acceptance bar (ROADMAP item 4 / the replay PR): replaying a
recorded speculative run on any back-end reproduces the identical
commit stream (output sha256) and the identical decision schedule,
including the rollback cascade of a chaos run that killed a worker; a
tampered recording diverges loudly at the right event seq; and the
counterfactual mode re-runs the recorded input under different knobs.
"""

import json

import pytest

from repro.errors import ReplayDivergence
from repro.experiments.config import RunConfig
from repro.experiments.runner import run_huffman
from repro.sre.replay import decision_signature, replay_path

# tolerance=0.0 fails every check → at least one rollback to reproduce
_FORCED = dict(workload="txt", n_blocks=24, seed=3, tolerance=0.0)
_LIVE = dict(workers=2, feed_gap_s=0.0005)


def _record(tmp_path, name="run.events.jsonl", **kw):
    path = tmp_path / name
    cfg = dict(_FORCED, **kw)
    if cfg.get("executor", "sim") != "sim":
        cfg = dict(_LIVE, **cfg)
    report = run_huffman(config=RunConfig.from_kwargs(
        events_out=str(path), **cfg))
    return path, report


def _assert_faithful(res, report):
    assert res.counterfactual is False
    assert res.schedule_match is True
    assert res.report.output_sha256 == report.output_sha256
    assert res.report.result.outcome == report.result.outcome
    assert res.replayed.rollbacks == res.recorded.rollbacks


def test_replay_sim_reproduces_run_byte_identically(tmp_path):
    path, report = _record(tmp_path)
    assert report.summary.rollbacks >= 1
    res = replay_path(str(path))
    _assert_faithful(res, report)


def test_replay_matches_decision_signature_event_for_event(tmp_path):
    path, report = _record(tmp_path)
    res = replay_path(str(path))
    rec = decision_signature(report.events.events())
    rep = decision_signature(res.report.events.events())
    assert rec == rep and rec  # equal and non-trivial


def test_replay_respeculation_heavy_run(tmp_path):
    # full verification + zero tolerance on markov: every check fails,
    # every failure re-speculates — the densest schedule to force
    path, report = _record(tmp_path, workload="markov", n_blocks=64,
                           verification="full", step=1)
    res = replay_path(str(path))
    _assert_faithful(res, report)
    assert res.recorded.speculations >= 2  # respec actually happened


def test_replay_can_rerecord_its_own_run(tmp_path):
    path, report = _record(tmp_path)
    out = tmp_path / "replayed.events.jsonl"
    res = replay_path(str(path), events_out=str(out))
    _assert_faithful(res, report)
    # the re-recorded log replays too (replay is a fixed point)
    res2 = replay_path(str(out))
    assert res2.schedule_match is True
    assert res2.report.output_sha256 == report.output_sha256


@pytest.mark.threaded
@pytest.mark.slow
def test_replay_threads_pins_live_interleaving(tmp_path):
    path, report = _record(tmp_path, executor="threads")
    res = replay_path(str(path))
    _assert_faithful(res, report)


@pytest.mark.procs
@pytest.mark.slow
def test_replay_procs_shm(tmp_path):
    path, report = _record(tmp_path, executor="procs", transport="shm")
    res = replay_path(str(path))
    _assert_faithful(res, report)


@pytest.mark.procs
@pytest.mark.slow
def test_replay_chaos_kill_reproduces_crash_cascade(tmp_path):
    # One worker: every encode depends on the first count region through
    # the reduce → tree → offset chain (run on the coordinator), so slot 0
    # gets the counts and then the encodes in at least two messages in
    # sequence, and kill@2 fires on every run.
    path, report = _record(tmp_path, name="chaos.events.jsonl",
                           executor="procs", transport="shm", workers=1,
                           fault_plan="kill@2")
    kinds = [e["kind"] for e in report.events.events()]
    assert "worker_crash" in kinds
    assert "worker_respawn" in kinds
    res = replay_path(str(path))
    _assert_faithful(res, report)
    # the fault plan rode in on the header, so the replayed run saw the
    # same deterministic SIGKILL and recovered the same way
    assert res.recorded.worker_crashes >= 1
    assert res.replayed.worker_crashes == res.recorded.worker_crashes


def test_tampered_check_error_diverges_at_that_seq(tmp_path):
    path, _ = _record(tmp_path)
    lines = path.read_text().splitlines()
    tampered_seq = None
    for i, line in enumerate(lines):
        e = json.loads(line)
        if e.get("kind") in ("check_pass", "check_fail") \
                and e.get("error") is not None:
            e["error"] = e["error"] + 123.456
            tampered_seq = e["seq"]
            lines[i] = json.dumps(e)
            break
    assert tampered_seq is not None
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ReplayDivergence) as exc:
        replay_path(str(path))
    assert exc.value.seq == tampered_seq
    assert "error" in str(exc.value)


def test_tampered_verdict_outcome_diverges(tmp_path):
    # flip a failed check into a pass: the replayed run then takes a
    # different path and the schedule cannot be consumed faithfully
    path, _ = _record(tmp_path)
    lines = path.read_text().splitlines()
    flipped = False
    out = []
    for line in lines:
        e = json.loads(line)
        if not flipped and e.get("kind") == "check_fail":
            e["kind"] = "check_pass"
            flipped = True
        out.append(json.dumps(e))
    assert flipped
    path.write_text("\n".join(out) + "\n")
    with pytest.raises(ReplayDivergence):
        replay_path(str(path))


def test_counterfactual_force_policy(tmp_path):
    path, report = _record(tmp_path)
    res = replay_path(str(path), force={"policy": "aggressive"})
    assert res.counterfactual is True
    assert res.schedule_match is None
    assert res.report.run_config.policy == "aggressive"
    # same deterministic input data → same committed bytes even under a
    # different policy (scheduling changes cost, not the final output)
    assert res.replayed.output_sha256 == res.recorded.output_sha256


def test_counterfactual_force_tolerance_changes_cascade(tmp_path):
    path, _ = _record(tmp_path)  # tolerance 0 → rollback recorded
    res = replay_path(str(path), force={"tolerance": 10.0})
    assert res.counterfactual is True
    assert res.recorded.rollbacks >= 1
    assert res.replayed.rollbacks == 0  # everything tolerated now
    assert res.replayed.outcome == "commit"


@pytest.mark.parametrize("app, kw", [("filter", {}),
                                     ("kmeans", {"drift_blocks": 8})],
                         ids=["filter", "kmeans"])
def test_replay_dispatches_every_app(tmp_path, app, kw):
    """Replay routes through run_job: filter and kmeans logs replay
    faithfully (rollbacks included) and run counterfactually."""
    from repro.experiments.jobs import run_job

    path = tmp_path / f"{app}.events.jsonl"
    report = run_job(RunConfig.for_app(app, n_blocks=16,
                                       events_out=str(path), **kw))
    res = replay_path(str(path))
    _assert_faithful(res, report)
    assert res.report.app == app
    assert res.recorded.rollbacks >= 1
    cf = replay_path(str(path), force={"policy": "aggressive"})
    assert cf.counterfactual is True
    assert cf.report.app == app
    assert cf.report.run_config.policy == "aggressive"
