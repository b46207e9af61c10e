"""Derived counters read the same however the event ring is kept.

``SpeculationStats``, the runtime's task counts, the rollback engine's
tallies and every registry series are folds over the run's events, not
tallies kept beside them. Each pinned sim run below is run three ways —
the ring on, ``events=False`` (no ring at all) and an 8-event ring that
wraps many times over — and all three must agree. The metrics snapshot
must also equal the one pinned here (sha256 of its canonical JSON, the
golden-digest idiom of tests/huffman/test_codec_golden.py): series names,
help, labels, buckets and values are part of the exporter contract.

The procs runs below do the same for the supervisor's crash and retry
facts and the shared-memory releases: in all three modes each counter
equals a count of its events taken by an independent fold, and the
values agree across the modes.
"""

import collections
import dataclasses
import hashlib
import json

import pytest

from repro.core.decisions import LiveDecisionSource
from repro.experiments.runner import RunConfig, run_huffman

pytestmark = pytest.mark.slow

#: (config, sha256 of the canonical metrics snapshot)
PINNED = {
    # tolerance 0 with full verification: 5 speculations, 4 rollbacks,
    # re-speculation off failed checks, then a commit.
    "rollback": (
        dict(workload="pdf", n_blocks=128, seed=3, tolerance=0.0,
             verification="full"),
        "78f7b49c96b3ab323f53376efffa496af16127659dee83a8a9ceed2928673cab",
    ),
    # one version, one passing check, one commit.
    "clean": (
        dict(workload="txt", n_blocks=64, seed=3),
        "c2085c975b7a54ecf10b29a94400c14ceeaca665d334d0bc2603e3a55ca6b6bf",
    ),
}

EVENT_MODES = {
    "ring": {},
    "off": {"events": False},
    "wrapped": {"events_capacity": 8},
}


class _Spy(LiveDecisionSource):
    """The live decisions, remembering the manager that adopted them."""

    def __init__(self) -> None:
        self.managers = []

    def bind(self, manager) -> None:
        self.spec = manager.spec
        self.managers.append(manager)


def _digest(snapshot) -> str:
    return hashlib.sha256(
        json.dumps(snapshot, sort_keys=True).encode()).hexdigest()


def _fold_outputs(config: dict, mode: str):
    spy = _Spy()
    report = run_huffman(config=RunConfig(**config, **EVENT_MODES[mode]),
                         decisions=spy)
    if mode == "off":
        assert report.events is None
    elif mode == "wrapped":
        assert len(report.events) == 8 < report.events.last_seq
    (manager,) = spy.managers
    engine = manager.engine
    return {
        "spec_stats": dataclasses.asdict(manager.stats),
        "runtime_stats": report.result.runtime_stats,
        "engine": (engine.rollbacks, engine.tasks_destroyed,
                   engine.buffer_entries_discarded, engine.wasted_task_us),
        "snapshot": report.metrics.snapshot(),
    }


@pytest.mark.parametrize("run", sorted(PINNED))
def test_folds_agree_with_ring_on_off_and_wrapped(run):
    config, pinned = PINNED[run]
    outputs = {mode: _fold_outputs(config, mode) for mode in EVENT_MODES}
    assert outputs["off"] == outputs["ring"]
    assert outputs["wrapped"] == outputs["ring"]
    ring = outputs["ring"]
    stats = ring["spec_stats"]
    assert ring["engine"][0] == stats["rollbacks"]
    if run == "rollback":
        assert stats["rollbacks"] == 4 and stats["commits"] == 1
        assert ring["engine"][1] > 0
    else:
        assert stats["rollbacks"] == 0 and stats["commits"] == 1
    assert _digest(ring["snapshot"]) == pinned


# ----------------------------------------------------------------------
# procs: crash, retry and shared-memory facts
# ----------------------------------------------------------------------
LIVE = {
    # One worker, so kill@2 always fires on the encodes' message.
    "chaos": dict(workload="txt", n_blocks=24, seed=3, executor="procs",
                  transport="shm", workers=1, feed_gap_s=0.0005,
                  fault_plan="kill@2"),
    "rollback": dict(workload="pdf", n_blocks=64, seed=3, tolerance=0.0,
                     executor="procs", transport="shm", workers=2),
}


class _Tally(_Spy):
    """Counts the run's crash, retry and release events with folds of its
    own, registered when the manager binds (before any of them)."""

    def bind(self, manager) -> None:
        super().bind(manager)
        self.counts = collections.Counter()
        log = manager.runtime.events
        for kind in ("worker_crash", "worker_respawn", "task_retry",
                     "task_quarantine", "shm_release"):
            log.fold(kind, self._count)

    def _count(self, event) -> None:
        kind = event["kind"]
        if kind == "worker_crash":
            self.counts["procs_worker_crashes", event["reason"]] += 1
        elif kind == "shm_release":
            self.counts["shm_refs_released", event["reason"]] += event["refs"]
            self.counts["shm_bytes_released", event["reason"]] += \
                event["nbytes"]
        else:
            self.counts[kind] += 1


#: counter -> the event tally it must equal (labelled ones per label)
_COUNTERS = {
    "procs_worker_crashes": None, "procs_worker_respawns": "worker_respawn",
    "procs_task_retries": "task_retry",
    "procs_tasks_quarantined": "task_quarantine",
    "shm_refs_released": None, "shm_bytes_released": None,
}


def _live_outputs(config: dict, mode: str):
    tally = _Tally()
    report = run_huffman(config=RunConfig(**config, **EVENT_MODES[mode]),
                         decisions=tally)
    assert report.roundtrip_ok
    metrics, events = {}, {}
    for name, kind in _COUNTERS.items():
        for series in report.metrics.get(name).snapshot_series():
            if kind is None:
                (label,) = series["labels"].values()
                key = (name, label)
            else:
                key = kind
            metrics[key] = series["value"]
            events[key] = tally.counts[key]
    assert set(tally.counts) <= set(metrics), "an event kind went uncounted"
    if mode == "ring":
        # the independent tally is the ring's own count
        ring = collections.Counter(
            e["kind"] for e in report.events.events()
            if e.get("clock") != "worker")
        assert sum(v for k, v in tally.counts.items()
                   if k[0] == "procs_worker_crashes") == ring["worker_crash"]
        assert tally.counts["worker_respawn"] == ring["worker_respawn"]
    return metrics, events


@pytest.mark.procs
@pytest.mark.parametrize("run", sorted(LIVE))
def test_procs_crash_and_shm_folds_agree_with_their_events(run):
    outputs = {mode: _live_outputs(LIVE[run], mode) for mode in EVENT_MODES}
    for mode, (metrics, events) in outputs.items():
        assert metrics == events, mode
    ring = outputs["ring"][0]
    assert outputs["off"][0] == ring
    assert outputs["wrapped"][0] == ring
    if run == "chaos":
        assert ring[("procs_worker_crashes", "crash")] == 1
        assert ring["worker_respawn"] == 1
        assert ring["task_retry"] >= 1
    else:
        assert ring[("shm_refs_released", "rollback")] > 0
