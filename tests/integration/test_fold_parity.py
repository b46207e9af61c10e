"""Derived counters read the same however the event ring is kept.

``SpeculationStats``, the runtime's task counts, the rollback engine's
tallies and every registry series are folds over the run's events, not
tallies kept beside them. Each pinned sim run below is run three ways —
the ring on, ``events=False`` (no ring at all) and an 8-event ring that
wraps many times over — and all three must agree. The metrics snapshot
must also equal the one pinned here (sha256 of its canonical JSON, the
golden-digest idiom of tests/huffman/test_codec_golden.py): series names,
help, labels, buckets and values are part of the exporter contract.
"""

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
