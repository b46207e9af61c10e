"""Integration-grade unit tests for the Huffman pipeline on the SRE."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.huffman.pipeline import HuffmanConfig, HuffmanPipeline
from repro.platforms import X86Platform
from repro.sre.executor_sim import SimulatedExecutor
from repro.sre.runtime import Runtime


BLOCK = 512


def _config(**kw):
    base = dict(block_size=BLOCK, reduce_ratio=4, offset_fanout=8,
                speculative=True, step=1, verify_k=2, tolerance=0.01)
    base.update(kw)
    return HuffmanConfig(**base)


def _run(data: bytes, config: HuffmanConfig, policy="balanced", workers=4,
         arrival_gap=1.0):
    blocks = [data[i:i + BLOCK] for i in range(0, len(data), BLOCK)]
    rt = Runtime()
    ex = SimulatedExecutor(rt, X86Platform(workers=workers), policy=policy,
                           workers=workers)
    pipe = HuffmanPipeline(rt, config, len(blocks))
    for i, b in enumerate(blocks):
        ex.sim.schedule_at(i * arrival_gap, lambda i=i, b=b: pipe.feed_block(i, b))
    end = ex.run()
    return pipe, pipe.result(end)


def _stationary(n_blocks=32, seed=0):
    """Low-drift data: speculation should always commit."""
    rng = np.random.default_rng(seed)
    return bytes(rng.choice(np.arange(32, 64, dtype=np.uint8), n_blocks * BLOCK,
                            p=np.ones(32) / 32))


def _drifting(n_blocks=32):
    """First quarter is one distribution, the rest another: the early tree
    fails its checks."""
    quarter = n_blocks // 4 * BLOCK
    head = b"a" * quarter
    rng = np.random.default_rng(1)
    tail = bytes(rng.integers(0, 256, n_blocks * BLOCK - quarter, dtype=np.uint8))
    return head + tail


def test_nonspeculative_run_roundtrips():
    data = _stationary()
    pipe, result = _run(data, _config(speculative=False))
    assert result.outcome == "non_speculative"
    assert pipe.verify_roundtrip(data)
    assert result.n_blocks == 32
    assert np.all(result.latencies > 0)
    assert result.spec_stats == {}


def test_speculative_commit_run():
    data = _stationary()
    pipe, result = _run(data, _config())
    assert result.outcome == "commit"
    assert result.spec_stats["rollbacks"] == 0
    assert pipe.verify_roundtrip(data)


def test_speculation_reduces_latency_on_stationary_data():
    data = _stationary()
    _, spec = _run(data, _config())
    _, nonspec = _run(data, _config(speculative=False))
    assert spec.avg_latency < nonspec.avg_latency


def test_drifting_data_rolls_back_and_still_roundtrips():
    data = _drifting()
    pipe, result = _run(data, _config())
    assert result.spec_stats["rollbacks"] >= 1
    assert result.outcome in ("commit", "recompute")
    assert pipe.verify_roundtrip(data)
    assert result.wasted_encodes > 0


def test_step_beyond_updates_never_speculates():
    data = _stationary()
    pipe, result = _run(data, _config(step=100))
    assert result.outcome == "recompute"
    assert result.spec_stats["speculations"] == 0
    assert pipe.verify_roundtrip(data)


def test_optimistic_on_drifting_data_recomputes():
    data = _drifting()
    pipe, result = _run(data, _config(verification="optimistic"))
    assert result.outcome == "recompute"
    assert result.spec_stats["checks"] == 1  # only the final comparison
    assert pipe.verify_roundtrip(data)


def test_loose_tolerance_commits_despite_drift():
    data = _drifting()
    pipe, result = _run(data, _config(tolerance=10.0))
    assert result.outcome == "commit"
    assert result.spec_stats["rollbacks"] == 0
    assert pipe.verify_roundtrip(data)


def test_tolerance_trades_compression_for_latency():
    """The committed speculative tree compresses worse than the recompute
    tree, but the run finishes earlier — the paper's §IV tradeoff."""
    data = _drifting()
    _, loose = _run(data, _config(tolerance=10.0))
    _, strict = _run(data, _config(tolerance=0.0001))
    assert loose.compressed_bits >= strict.compressed_bits
    assert loose.avg_latency <= strict.avg_latency


def test_partial_last_block():
    data = _stationary() + b"tail"
    blocks = 33
    pipe, result = _run(data, _config())
    assert result.n_blocks == blocks
    assert pipe.verify_roundtrip(data)


def test_single_block_input():
    data = b"tiny" * 64
    pipe, result = _run(data, _config())
    assert result.n_blocks == 1
    # single reduce is final: nothing to speculate on
    assert result.outcome == "recompute"
    assert pipe.verify_roundtrip(data)


def test_compressed_bits_consistency():
    data = _stationary()
    pipe, result = _run(data, _config())
    packed, total_bits = pipe.assemble()
    assert total_bits == result.compressed_bits
    assert result.input_bytes == len(data)
    assert result.compression_ratio > 1.0


def test_latency_accounting_excludes_rolled_back_encodes():
    data = _drifting()
    pipe, result = _run(data, _config())
    valid = pipe.valid_versions()
    for block in range(result.n_blocks):
        attempts = pipe.collector.encode_attempts(block)
        valid_attempts = [a for a in attempts if a[1] in valid]
        assert len(valid_attempts) == 1


def test_commit_latency_not_before_encode_latency():
    data = _stationary()
    _, result = _run(data, _config())
    assert np.all(result.commit_latencies >= result.latencies - 1e-9)


def test_feed_block_validation():
    rt = Runtime()
    SimulatedExecutor(rt, X86Platform(workers=1), workers=1)
    pipe = HuffmanPipeline(rt, _config(), 4)
    pipe.feed_block(0, b"x" * BLOCK)
    with pytest.raises(ExperimentError):
        pipe.feed_block(0, b"x" * BLOCK)
    with pytest.raises(ExperimentError):
        pipe.feed_block(99, b"x" * BLOCK)


def test_result_requires_all_blocks_fed():
    rt = Runtime()
    SimulatedExecutor(rt, X86Platform(workers=1), workers=1)
    pipe = HuffmanPipeline(rt, _config(), 4)
    pipe.feed_block(0, b"x" * BLOCK)
    with pytest.raises(ExperimentError):
        pipe.result()


def test_zero_blocks_rejected():
    rt = Runtime()
    with pytest.raises(ExperimentError):
        HuffmanPipeline(rt, _config(), 0)


def test_config_validation():
    with pytest.raises(ExperimentError):
        HuffmanConfig(block_size=0)
    with pytest.raises(ExperimentError):
        HuffmanConfig(step=-1)
    with pytest.raises(ExperimentError):
        HuffmanConfig(tolerance=-0.5)


def test_trace_contains_speculation_events():
    data = _drifting()
    blocks = [data[i:i + BLOCK] for i in range(0, len(data), BLOCK)]
    rt = Runtime()
    ex = SimulatedExecutor(rt, X86Platform(workers=4), policy="balanced", workers=4)
    pipe = HuffmanPipeline(rt, _config(), len(blocks))
    for i, b in enumerate(blocks):
        ex.sim.schedule_at(float(i), lambda i=i, b=b: pipe.feed_block(i, b))
    ex.run()
    kinds = {e["kind"] for e in rt.events.events()}
    assert "spec_predict" in kinds
    assert "rollback_done" in kinds or "spec_commit" in kinds
