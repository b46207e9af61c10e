"""End-to-end flight recorder: causal closure across executor back-ends.

The acceptance bar for the event log: on every back-end, a forced
mis-speculation produces a cascade in which **every** ``task_abort``
reaches the ``destroy_signal`` (and from there the failing check) purely
by following ``cause`` edges — no orphaned destruction. On the process
back-end, worker events must come home over the stop pipe with strictly
increasing per-worker sequence numbers, and `repro explain`'s totals must
agree with the RollbackEngine counters and the shared-memory release
metrics (double-entry: event log vs metrics surface).
"""

import pytest

from repro.core.decisions import LiveDecisionSource
from repro.experiments.runner import RunConfig, run_huffman
from repro.obs.events import index_by_seq, load_events_jsonl, walk_to_root
from repro.obs.explain import build_cascades, explain_events

pytestmark = pytest.mark.slow

# tolerance=0.0 fails every verification check, forcing a rollback
_FORCED = dict(workload="txt", n_blocks=24, seed=3, tolerance=0.0)
_LIVE = dict(workers=2, feed_gap_s=0.0005)


def _run(executor, **kw):
    cfg = dict(_FORCED, **kw)
    if executor != "sim":
        cfg.update(_LIVE, executor=executor)
    return run_huffman(config=RunConfig(**cfg))


def _assert_causal_closure(events):
    """Every task_abort walks back to a destroy_signal root, and above it
    to the failing check — or, for a version that never launched (the
    final update overtook its prediction), to its spec_abandon."""
    by_seq = index_by_seq(events)
    launched = {e["version"] for e in events if e["kind"] == "spec_launch"}
    aborts = [e for e in events if e["kind"] == "task_abort"]
    assert aborts, "forced mis-speculation produced no aborts"
    for abort in aborts:
        chain = walk_to_root(abort, by_seq)
        kinds = [e["kind"] for e in chain]
        assert "destroy_signal" in kinds, (
            f"orphaned abort {abort.get('task')!r}: chain {kinds}")
        # and above the signal sits the check that pulled the trigger
        signal = next(e for e in chain if e["kind"] == "destroy_signal")
        roots = {"check_fail"} if signal["version"] in launched \
            else {"check_fail", "spec_abandon"}
        assert roots & set(kinds), (
            f"abort {abort.get('task')!r} has no failing check in {kinds}")


@pytest.mark.parametrize("executor", ["sim", "threads", "procs"])
def test_forced_rollback_cascade_is_causally_closed(executor):
    report = _run(executor)
    assert report.roundtrip_ok  # rollback recovered, output still correct
    events = report.events.events()
    assert report.result.spec_stats["rollbacks"] >= 1
    _assert_causal_closure(events)


@pytest.mark.parametrize("executor", ["sim", "threads", "procs"])
def test_spec_lineage_reaches_the_prediction(executor):
    """check_fail chains back through spec_launch to a spec_predict."""
    report = _run(executor)
    events = report.events.events()
    by_seq = index_by_seq(events)
    fails = [e for e in events if e["kind"] == "check_fail"]
    assert fails
    for fail in fails:
        kinds = {e["kind"] for e in walk_to_root(fail, by_seq)}
        assert "spec_launch" in kinds
        assert "spec_predict" in kinds


class _HoldFirstPrediction(LiveDecisionSource):
    """The live decisions, but the first prediction is delivered only
    after the final tree: the final update overtakes it, every time."""

    def __init__(self) -> None:
        self.held = None

    def bind(self, manager) -> None:
        self.spec = manager.spec

    def on_prediction_ready(self, manager, version, outputs) -> None:
        if self.held is None:
            self.held = (version, outputs)
            return
        super().on_prediction_ready(manager, version, outputs)

    def on_final_ready(self, manager, ref_value, outs) -> None:
        super().on_final_ready(manager, ref_value, outs)
        if self.held is not None:
            manager._process_prediction_ready(*self.held)


@pytest.mark.parametrize("executor", ["sim", "threads"])
def test_half_born_version_rollback_is_causally_closed(executor):
    """The final update overtakes the first prediction: the half-born
    version is rolled back under its spec_abandon root, and the run
    recomputes the exact encoding, byte for byte the non-speculative
    sim run's."""
    cfg = dict(_FORCED)
    if executor != "sim":
        cfg.update(_LIVE, executor=executor)
    report = run_huffman(config=RunConfig(**cfg),
                         decisions=_HoldFirstPrediction())
    assert report.roundtrip_ok
    events = report.events.events()
    kinds = [e["kind"] for e in events]
    assert "spec_launch" not in kinds and "check_fail" not in kinds
    assert kinds.count("spec_abandon") == 1
    assert report.result.spec_stats["recomputes"] == 1
    _assert_causal_closure(events)
    (signal,) = [e for e in events if e["kind"] == "destroy_signal"]
    assert index_by_seq(events)[signal["cause"]]["kind"] == "spec_abandon"
    exact = run_huffman(config=RunConfig(**_FORCED, speculative=False))
    assert report.output_sha256 == exact.output_sha256


def test_procs_worker_events_come_home_in_order():
    report = _run("procs")
    events = report.events.events()
    per_worker: dict[int, list[int]] = {}
    for e in events:
        if e.get("clock") == "worker":
            per_worker.setdefault(e["worker"], []).append(e["worker_seq"])
    assert per_worker, "no worker events were harvested over the stop pipe"
    for wid, seqs in per_worker.items():
        assert seqs == sorted(seqs), f"worker {wid} events out of order"
        assert len(set(seqs)) == len(seqs), f"worker {wid} duplicated seqs"
    execs = [e for e in events if e["kind"] == "worker_exec"]
    assert execs and all(e["run_id"] == report.events.run_id for e in execs)


def test_explain_totals_match_engine_and_shm_metrics():
    """The explain report is double-entered against the metrics surface:
    destroyed-task count == RollbackEngine.tasks_destroyed and freed shm
    bytes == shm_bytes_released{reason=rollback}."""
    report = _run("procs", transport="shm")
    reg = report.metrics
    cascades = build_cascades(report.events.events())
    assert cascades
    destroyed = sum(c.tasks_destroyed for c in cascades)
    hist = reg.get("spec_rollback_cost")
    assert destroyed == hist.labels(measure="tasks").sum()
    assert len(cascades) == hist.labels(measure="tasks").count()
    assert sum(c.freed_refs for c in cascades) == \
        reg.value("shm_refs_released", reason="rollback")
    assert sum(c.freed_bytes for c in cascades) == \
        reg.value("shm_bytes_released", reason="rollback")
    # the rendered report agrees with itself
    text = explain_events(report.events.events())
    assert f"{destroyed} tasks destroyed" in text


def test_events_jsonl_sink_round_trips(tmp_path):
    path = tmp_path / "run.events.jsonl"
    report = run_huffman(config=RunConfig(**_FORCED, events_out=str(path)))
    on_disk = load_events_jsonl(str(path))
    in_memory = report.events.events()
    assert [e["seq"] for e in on_disk] == [e["seq"] for e in in_memory]
    _assert_causal_closure(on_disk)


def test_events_disabled_keeps_run_working():
    report = run_huffman(config=RunConfig(**_FORCED, events=False))
    assert report.roundtrip_ok
    assert report.events is None
    assert report.warnings == []
