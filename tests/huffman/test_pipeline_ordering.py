"""Huffman pipeline under adversarial arrival orders.

Unlike the filter app (which needs the previous block's raw tail), the
Huffman pipeline has no ordering requirement: a count region spawns once
all its blocks have arrived, reduce groups complete whenever their members
do, and the offset chain wires retroactively. Blocks may arrive in any
order.
"""

import numpy as np
import pytest

from repro.huffman.pipeline import HuffmanConfig, HuffmanPipeline
from repro.platforms import X86Platform
from repro.sre.executor_sim import SimulatedExecutor
from repro.sre.runtime import Runtime

BLOCK = 512


def _run_order(order, n_blocks=16, **config_kw):
    base = dict(block_size=BLOCK, reduce_ratio=4, offset_fanout=4,
                speculative=True, step=1, verify_k=2, tolerance=0.01)
    base.update(config_kw)
    rng = np.random.default_rng(42)
    data = bytes(rng.choice(np.arange(40, 90, dtype=np.uint8), n_blocks * BLOCK))
    rt = Runtime()
    ex = SimulatedExecutor(rt, X86Platform(workers=4), policy="balanced", workers=4)
    pipe = HuffmanPipeline(rt, HuffmanConfig(**base), n_blocks)
    for slot, i in enumerate(order):
        ex.sim.schedule_at(float(slot * 7), lambda i=i: pipe.feed_block(
            i, data[i * BLOCK:(i + 1) * BLOCK]))
    end = ex.run()
    result = pipe.result(end)
    assert pipe.verify_roundtrip(data)
    return result


def test_reverse_arrival_order():
    result = _run_order(list(reversed(range(16))))
    assert result.outcome in ("commit", "recompute")
    assert result.n_blocks == 16


def test_shuffled_arrival_order():
    rng = np.random.default_rng(7)
    order = list(rng.permutation(16))
    result = _run_order(order)
    assert result.n_blocks == 16


@pytest.mark.parametrize("region_blocks", [3, 8])
def test_shuffled_arrival_with_regions(region_blocks):
    """A count region spawns once all its blocks have arrived, whatever
    their order; 18 blocks leave a short last group, and K = 8 is capped
    by the 4-block reduce group."""
    rng = np.random.default_rng(7)
    order = list(rng.permutation(18))
    result = _run_order(order, n_blocks=18, region_blocks=region_blocks)
    assert result.n_blocks == 18


def test_interleaved_group_completion():
    """Arrival order that completes reduce group 2 before group 0."""
    order = [8, 9, 10, 11, 0, 4, 1, 5, 2, 6, 3, 7, 12, 13, 14, 15]
    result = _run_order(order)
    assert result.n_blocks == 16


def test_burst_then_trickle():
    """All but one block at t=0, the last one much later (stalls the final
    reduce — speculation should cover the gap)."""
    rng = np.random.default_rng(42)
    n_blocks = 16
    data = bytes(rng.choice(np.arange(40, 90, dtype=np.uint8), n_blocks * BLOCK))
    rt = Runtime()
    ex = SimulatedExecutor(rt, X86Platform(workers=4), policy="balanced", workers=4)
    pipe = HuffmanPipeline(
        rt, HuffmanConfig(block_size=BLOCK, reduce_ratio=4, offset_fanout=4,
                          speculative=True, step=1, verify_k=2), n_blocks)
    for i in range(n_blocks - 1):
        ex.sim.schedule_at(float(i), lambda i=i: pipe.feed_block(
            i, data[i * BLOCK:(i + 1) * BLOCK]))
    ex.sim.schedule_at(5000.0, lambda: pipe.feed_block(
        n_blocks - 1, data[(n_blocks - 1) * BLOCK:]))
    end = ex.run()
    result = pipe.result(end)
    assert pipe.verify_roundtrip(data)
    # with speculation, earlier blocks were encoded long before the straggler
    lat = result.latencies
    assert lat[:4].max() < 5000.0


def test_run_pause_resume_midflight():
    """Stopping the simulation mid-run and resuming completes identically to
    an uninterrupted run (the paper's runtime never needs this, but a
    simulator that can't pause can't be inspected)."""
    import numpy as np
    from repro.huffman.pipeline import HuffmanConfig, HuffmanPipeline
    from repro.platforms import X86Platform
    from repro.sre.executor_sim import SimulatedExecutor
    from repro.sre.runtime import Runtime

    def build():
        rng = np.random.default_rng(11)
        data = bytes(rng.choice(np.arange(60, 100, dtype=np.uint8), 16 * BLOCK))
        rt = Runtime()
        ex = SimulatedExecutor(rt, X86Platform(workers=4), policy="balanced",
                               workers=4)
        pipe = HuffmanPipeline(
            rt, HuffmanConfig(block_size=BLOCK, reduce_ratio=4,
                              offset_fanout=4, step=1, verify_k=2), 16)
        for i in range(16):
            ex.sim.schedule_at(float(i * 3), lambda i=i: pipe.feed_block(
                i, data[i * BLOCK:(i + 1) * BLOCK]))
        return ex, pipe, data

    ex1, pipe1, data = build()
    end1 = ex1.run()
    result1 = pipe1.result(end1)

    ex2, pipe2, _ = build()
    ex2.run(until=end1 / 3)
    ex2.run(until=2 * end1 / 3)
    end2 = ex2.run()
    result2 = pipe2.result(end2)

    assert end1 == end2
    assert np.array_equal(result1.latencies, result2.latencies)
    assert result1.outcome == result2.outcome
    assert pipe2.verify_roundtrip(data)
