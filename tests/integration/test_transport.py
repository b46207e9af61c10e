"""End-to-end shared-memory transport: identity, reclamation, no leaks.

The acceptance bar for the shm transport: (a) the encoded stream is
byte-identical whichever executor/transport combination produced it,
(b) every shared-memory segment is reclaimed after a clean commit run
*and* after a forced-rollback run, (c) the process back-end actually
ships fewer payload bytes with refs than with pickled blocks.
"""

import glob

import pytest

from repro.experiments.config import RunConfig
from repro.experiments.runner import run_huffman, split_blocks
from repro.huffman.pipeline import HuffmanConfig, HuffmanPipeline
from repro.obs.metrics import MetricsRegistry
from repro.sre.registry import make_executor
from repro.sre.runtime import Runtime
from repro.sre.shm import BlockStore
from repro.workloads import get_workload

pytestmark = pytest.mark.slow

_N_BLOCKS = 24
_BLOCK = 4096


def _my_shm_names():
    """Names under /dev/shm created by this repo's stores (this process)."""
    return {p.rsplit("/", 1)[-1] for p in glob.glob("/dev/shm/repro-*")}


def _encoded_stream(executor: str, transport: str) -> tuple[bytes, int]:
    """Run the pipeline manually and return the assembled packed stream.

    Non-speculative: live back-ends time speculation off the wall clock,
    so only the nonspec task population is deterministic across them.
    """
    from repro.sim.rng import make_rng

    data = get_workload("txt").generate(_N_BLOCKS * _BLOCK, make_rng(3))
    blocks = split_blocks(data, _BLOCK)
    registry = MetricsRegistry()
    runtime = Runtime(metrics=registry)
    store = BlockStore(metrics=registry) if transport == "shm" else None
    hconfig = HuffmanConfig(block_size=_BLOCK, speculative=False)
    try:
        if executor == "sim":
            engine = make_executor("sim", runtime, platform="x86")
            pipeline = HuffmanPipeline(runtime, hconfig, len(blocks), store=store)
            for index, block in enumerate(blocks):
                engine.sim.schedule_at(
                    float(index), lambda i=index, b=block: pipeline.feed_block(i, b)
                )
            engine.run()
        else:
            engine = make_executor(executor, runtime, workers=2)
            pipeline = HuffmanPipeline(runtime, hconfig, len(blocks), store=store)
            engine.start()
            for index, block in enumerate(blocks):
                engine.submit(pipeline.feed_block, index, block)
            engine.close_input()
            assert engine.wait_idle(timeout=600.0)
            engine.shutdown()
            engine.raise_errors()
        packed, total_bits = pipeline.assemble()
        assert pipeline.verify_roundtrip(data)
        return packed.tobytes(), total_bits
    finally:
        if store is not None:
            store.close()


def test_encoded_stream_byte_identical_across_executors_and_transports():
    reference = _encoded_stream("sim", "pickle")
    for executor in ("sim", "threads", "procs"):
        for transport in ("pickle", "shm"):
            if (executor, transport) == ("sim", "pickle"):
                continue
            assert _encoded_stream(executor, transport) == reference, (
                f"{executor}/{transport} diverged from sim/pickle"
            )


def _leak_checked_run(cfg: RunConfig):
    before = _my_shm_names()
    report = run_huffman(config=cfg)
    leaked = _my_shm_names() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
    return report


def test_speculative_shm_run_commits_without_leaks():
    report = _leak_checked_run(RunConfig(
        workload="txt", n_blocks=_N_BLOCKS, seed=3, executor="procs",
        transport="shm", workers=2, feed_gap_s=0.0005,
    ))
    assert report.roundtrip_ok
    reg = report.metrics
    assert reg.gauge("shm_segments").value() == 0
    released = reg.counter("shm_refs_released", labelnames=("reason",))
    # one base ref per block commits through the sink
    assert released.labels(reason="commit").value() >= _N_BLOCKS


def test_shm_stores_blocks_and_trees_only():
    """Histograms never enter the store: the reduce and offset tasks that
    read them run on the coordinator. A 64-block run stores each block
    once plus one tree per second pass built — 65 on the usual
    one-version commit (it stored 129 while every histogram was put)."""
    report = _leak_checked_run(RunConfig(
        workload="txt", n_blocks=64, seed=3, executor="procs",
        transport="shm", workers=2, feed_gap_s=0.0005,
    ))
    assert report.roundtrip_ok
    events = report.events.events()
    passes = (sum(e["kind"] == "spec_launch" for e in events)
              + (report.result.outcome == "recompute"))
    assert passes >= 1
    assert report.metrics.value("shm_blocks_stored") == 64 + passes


def test_forced_rollback_releases_refs_and_segments():
    """tolerance=0.0 fails every check: all speculated versions roll back
    or the run degrades to recompute — either way no segment survives."""
    report = _leak_checked_run(RunConfig(
        workload="txt", n_blocks=_N_BLOCKS, seed=3, executor="procs",
        transport="shm", workers=2, feed_gap_s=0.0005, tolerance=0.0,
    ))
    assert report.roundtrip_ok
    assert report.result.outcome in ("recompute", "commit")
    reg = report.metrics
    assert reg.gauge("shm_segments").value() == 0
    released = reg.counter("shm_refs_released", labelnames=("reason",))
    by_reason = {s["labels"]["reason"]: s["value"]
                 for s in released.snapshot_series()}
    assert by_reason.get("commit", 0) >= _N_BLOCKS  # base refs still commit
    # A launched version pinned its tree and blocks, so destroying it
    # releases refs. A version destroyed before its prediction landed
    # (the final update overtook it) never launched and pinned nothing.
    events = report.events.events()
    launched = {e["version"] for e in events if e["kind"] == "spec_launch"}
    destroyed = {e["version"] for e in events if e["kind"] == "destroy_signal"}
    assert (by_reason.get("rollback", 0) > 0) == bool(launched & destroyed)


def test_shm_ships_fewer_payload_bytes_than_pickle():
    common = dict(workload="txt", n_blocks=_N_BLOCKS, seed=3,
                  executor="procs", workers=2, feed_gap_s=0.0005,
                  speculative=False)
    pickle_run = run_huffman(config=RunConfig.from_kwargs(
        transport="pickle", **common))
    shm_run = run_huffman(config=RunConfig.from_kwargs(
        transport="shm", **common))
    sent_pickle = pickle_run.metrics.value("procs_payload_bytes")
    sent_shm = shm_run.metrics.value("procs_payload_bytes")
    avoided = shm_run.metrics.value("procs_payload_bytes_avoided")
    assert sent_shm * 10 <= sent_pickle, (
        f"shm shipped {sent_shm:.0f} B vs pickle {sent_pickle:.0f} B"
    )
    assert avoided > 0
