"""Microbenchmarks of the computational kernels and the DES engine.

These use conventional multi-round pytest-benchmark timing (unlike the
figure regenerations) and guard against performance regressions in the hot
paths: histogramming, tree build, word-packed encode, windowed decode,
stream assembly, and the simulator's event loop.

Run directly (``python benchmarks/bench_micro.py --executor {sim,threads,
procs,all}``) it benchmarks the executor back-ends on a pure-Python
histogram workload instead, printing the threads-vs-procs speedup table
(see :mod:`repro.experiments.executor_bench`). On a multi-core host the
process pool beats the GIL-bound thread pool roughly by the core count;
on a single core both degenerate to serial.

``python benchmarks/bench_micro.py --transport-table`` prints the
pickle-vs-shm payload-byte comparison instead (see
:mod:`repro.experiments.transport_bench` and docs/transport.md).
"""

import numpy as np
import pytest

from repro.huffman.codec import assemble_stream, decode_stream, encode_block
from repro.huffman.histogram import byte_histogram
from repro.huffman.tree import HuffmanTree
from repro.sim.kernel import Simulator
from repro.workloads import get_workload

BLOCK = 4096


@pytest.fixture(scope="module")
def text_block():
    return get_workload("txt").generate(BLOCK, seed=1)


@pytest.fixture(scope="module")
def text_mb():
    return get_workload("txt").generate(1024 * 1024, seed=1)


def test_micro_histogram_block(benchmark, text_block):
    hist = benchmark(byte_histogram, text_block)
    assert hist.sum() == BLOCK


def test_micro_tree_build(benchmark, text_mb):
    hist = byte_histogram(text_mb)
    tree = benchmark(HuffmanTree.from_histogram, hist)
    assert tree.max_length < 64


def test_micro_encode_block(benchmark, text_block):
    tree = HuffmanTree.from_histogram(byte_histogram(text_block))
    packed, nbits = benchmark(encode_block, text_block, tree)
    assert nbits > 0


def test_micro_encode_megabyte(benchmark, text_mb):
    tree = HuffmanTree.from_histogram(byte_histogram(text_mb))
    _, nbits = benchmark(encode_block, text_mb, tree)
    # sanity: compresses text
    assert nbits < len(text_mb) * 8


def test_micro_decode_block(benchmark, text_block):
    tree = HuffmanTree.from_histogram(byte_histogram(text_block))
    packed, nbits = encode_block(text_block, tree)
    out = benchmark(decode_stream, packed, nbits, tree)
    assert out == text_block


def test_micro_decode_megabyte(benchmark, text_mb):
    tree = HuffmanTree.from_histogram(byte_histogram(text_mb))
    packed, nbits = encode_block(text_mb, tree)
    out = benchmark(decode_stream, packed, nbits, tree)
    assert out == text_mb


def test_micro_assemble_stream(benchmark, text_mb):
    """Place 256 chained 4 KB pieces, as the round-trip verifier does."""
    tree = HuffmanTree.from_histogram(byte_histogram(text_mb))
    pieces, total = [], 0
    for i in range(0, len(text_mb), BLOCK):
        packed, nbits = encode_block(text_mb[i:i + BLOCK], tree)
        pieces.append((total, packed, nbits))
        total += nbits
    stream = benchmark(assemble_stream, pieces, total)
    assert np.array_equal(stream, encode_block(text_mb, tree)[0])


def test_micro_simulator_event_throughput(benchmark):
    def churn():
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 10_000:
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count

    assert benchmark(churn) == 10_000


def test_micro_workload_generation(benchmark):
    wl = get_workload("pdf")
    data = benchmark(wl.generate, 256 * 1024, 0)
    assert len(data) == 256 * 1024


if __name__ == "__main__":
    import sys

    if "--transport-table" in sys.argv:
        from repro.experiments.transport_bench import (
            render_table,
            run_transport_bench,
        )

        print(render_table(run_transport_bench()))
        sys.exit(0)

    from repro.experiments.executor_bench import main

    sys.exit(main())
