"""Chaos integration: the pipeline under injected worker faults.

Acceptance bar for the worker supervisor (docs/fault-tolerance.md): under
every fault class — kill, hang, dropped reply, slow worker — a procs+shm
run completes with output byte-identical to the simulated back-end, leaks
no shared-memory segment, and leaves a walkable crash cascade in the
flight recorder. Quarantine composes with the shm transport: a payload
that keeps killing workers force-releases the blocks it pinned.
"""

import glob
from functools import partial

import pytest

from repro.errors import TaskExecutionError, TransportError
from repro.experiments.config import RunConfig
from repro.experiments.runner import run_huffman, split_blocks
from repro.huffman.pipeline import HuffmanConfig, HuffmanPipeline
from repro.obs.events import EventLog
from repro.obs.explain import build_crash_cascades, explain_events
from repro.obs.metrics import MetricsRegistry
from repro.sim.rng import make_rng
from repro.sre import executor_procs
from repro.sre.executor_procs import ProcessExecutor
from repro.sre.registry import make_executor
from repro.sre.runtime import Runtime
from repro.sre.shm import BlockStore
from repro.sre.task import Task
from repro.workloads import get_workload

pytestmark = pytest.mark.slow

_N_BLOCKS = 16
_BLOCK = 4096

#: A one-worker speculative 24-block run. Only count and encode regions
#: ship (reduce, tree and offset run on the coordinator), and every encode
#: depends on the first count region through that chain, so slot 0
#: receives at least two pipe messages in sequence — the counts, then the
#: encodes — and ``kill@2`` fires on every run, however the counts batch.
_KILLED_RUN = dict(workload="txt", n_blocks=24, seed=3, executor="procs",
                   transport="shm", workers=1, feed_gap_s=0.0005,
                   fault_plan="kill@2")


def _my_shm_names():
    return {p.rsplit("/", 1)[-1] for p in glob.glob("/dev/shm/repro-*")}


def _encoded_stream(executor: str, fault_plan=None, **procs_opts):
    """Manual nonspec pipeline run; returns the assembled packed stream.

    Non-speculative so the task population — and therefore the output —
    is deterministic across back-ends and fault plans.
    """
    data = get_workload("txt").generate(_N_BLOCKS * _BLOCK, make_rng(3))
    blocks = split_blocks(data, _BLOCK)
    registry = MetricsRegistry()
    runtime = Runtime(metrics=registry)
    store = BlockStore(metrics=registry) if executor == "procs" else None
    hconfig = HuffmanConfig(block_size=_BLOCK, speculative=False)
    try:
        if executor == "sim":
            engine = make_executor("sim", runtime, platform="x86")
            pipeline = HuffmanPipeline(runtime, hconfig, len(blocks))
            for index, block in enumerate(blocks):
                engine.sim.schedule_at(
                    float(index), lambda i=index, b=block: pipeline.feed_block(i, b)
                )
            engine.run()
        else:
            engine = make_executor("procs", runtime, workers=2, store=store,
                                   fault_plan=fault_plan, **procs_opts)
            pipeline = HuffmanPipeline(runtime, hconfig, len(blocks),
                                       store=store)
            engine.start()
            for index, block in enumerate(blocks):
                engine.submit(pipeline.feed_block, index, block)
            engine.close_input()
            assert engine.wait_idle(timeout=600.0)
            engine.shutdown()
            engine.raise_errors()
        packed, total_bits = pipeline.assemble()
        assert pipeline.verify_roundtrip(data)
        return packed.tobytes(), total_bits, registry
    finally:
        if store is not None:
            store.close()


@pytest.mark.parametrize("fault,opts", [
    ("kill@2", {}),
    ("kill@1,kill@1:w1", {}),
    ("hang@1", {"dispatch_timeout_s": 0.5}),
    ("drop@1:w1", {"dispatch_timeout_s": 0.5}),
    ("delay@1:0.2", {}),
    # A straggling seat with a small pipe window (``window``: the
    # ``BATCH_MAX`` this case runs with) holds only that window; the rest
    # of the work waits in the ready queues for the healthy seat.
    ("delay@1:0.6", {"window": 2}),
])
def test_chaos_output_byte_identical_and_leak_free(fault, opts, monkeypatch):
    opts = dict(opts)
    if "window" in opts:
        monkeypatch.setattr(executor_procs, "BATCH_MAX", opts.pop("window"))
    reference = _encoded_stream("sim")[:2]
    before = _my_shm_names()
    packed, bits, registry = _encoded_stream("procs", fault_plan=fault, **opts)
    assert (packed, bits) == reference, f"{fault}: output diverged from sim"
    leaked = _my_shm_names() - before
    assert not leaked, f"{fault}: leaked segments {sorted(leaked)}"
    assert registry.gauge("shm_segments").value() == 0
    if fault.startswith(("kill", "hang", "drop")):
        crashes = registry.counter("procs_worker_crashes",
                                   labelnames=("cause",))
        assert sum(s["value"] for s in crashes.snapshot_series()) >= 1
        assert registry.value("procs_worker_respawns") >= 1


def test_full_speculative_run_survives_worker_kill():
    """The end-to-end acceptance run: procs+shm, speculation on, a worker
    SIGKILLed mid-run — commit, clean round-trip, zero leaks, and the
    churn warning tells the user what happened."""
    before = _my_shm_names()
    report = run_huffman(config=RunConfig(**_KILLED_RUN))
    assert not (_my_shm_names() - before)
    assert report.roundtrip_ok
    assert report.metrics.gauge("shm_segments").value() == 0
    assert report.metrics.value("procs_worker_crashes", cause="crash") == 1
    assert report.metrics.value("procs_worker_respawns") == 1
    assert any("worker_churn" in w for w in report.warnings)


def test_explain_renders_the_crash_cascade():
    report = run_huffman(config=RunConfig(**_KILLED_RUN))
    events = report.events.events()
    cascades = build_crash_cascades(events)
    assert len(cascades) == 1
    assert cascades[0].reason == "crash"
    assert cascades[0].respawns, "respawn not linked to the crash"
    text = explain_events(events)
    assert "worker-crash cascade" in text
    assert "respawn" in text


def _identity(i):
    return {"out": i}


def _use_block(x):
    return {"out": len(x) if hasattr(x, "__len__") else x}


def test_quarantine_force_releases_pinned_shm_blocks():
    """A quarantined payload's shared blocks are released with
    reason="crash"; later releases by the version machinery are tolerated
    no-ops; nothing leaks."""
    before = _my_shm_names()
    registry = MetricsRegistry()
    events = EventLog()
    rt = Runtime(metrics=registry, events=events)
    store = BlockStore(metrics=registry, events=events)
    ref = store.put(b"x" * 8192, refs=2)  # payload pin + a version's pin
    assert ref is not None
    ex = ProcessExecutor(rt, workers=1, fault_plan="kill@1!", store=store)
    t = rt.add_task(Task("pinned", _use_block, inputs=("x",)))
    ex.start()
    ex.deliver(t, "x", ref)
    ex.close_input()
    assert ex.wait_idle(timeout=60.0)
    ex.shutdown()
    with pytest.raises(TaskExecutionError, match="quarantined"):
        ex.raise_errors()
    assert registry.value("shm_refs_released", reason="crash") == 2
    assert registry.value("procs_tasks_quarantined") == 1
    assert registry.value("procs_worker_crashes", cause="crash") >= 1
    assert registry.value("procs_worker_respawns") >= 1
    assert store.refcount(ref) == 0
    # The version machinery's own late release/acquire must not blow up.
    store.release(ref, reason="rollback")
    store.acquire(ref)
    # But a genuinely unknown ref still trips the double-release guard.
    bogus_events = [e for e in events.events()
                    if e["kind"] == "shm_release" and e.get("reason") == "crash"]
    assert bogus_events and all(e.get("freed") for e in bogus_events)
    store.close()
    assert not (_my_shm_names() - before)
    assert registry.gauge("shm_segments").value() == 0


def test_unknown_ref_release_still_raises():
    store = BlockStore()
    ref = store.put(b"y" * 4096)
    assert ref is not None
    store.release(ref)
    with pytest.raises(TransportError):
        store.release(ref)  # fully released, never forfeited
    store.close()
