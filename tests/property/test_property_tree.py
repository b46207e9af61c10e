"""``code_lengths`` matches the per-node heap build it replaced.

The oracle below is the former implementation, kept verbatim in spirit:
a heap of ``(weight, tiebreak, node)`` numpy-derived items, a numpy
``parent`` array and one parent walk per leaf. The production version
builds the same tree from plain Python ints and fills depths in one
reverse sweep; any divergence would change every golden digest.
"""

import heapq

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.huffman.histogram import ALPHABET, byte_histogram
from repro.huffman.tree import code_lengths


def _reference_code_lengths(hist: np.ndarray) -> np.ndarray:
    weights = hist.astype(np.int64) * 256
    weights[weights == 0] = 1
    n = ALPHABET
    parent = np.full(2 * n - 1, -1, dtype=np.int64)
    heap = [(int(weights[s]), s, s) for s in range(n)]
    heapq.heapify(heap)
    next_id = n
    while len(heap) > 1:
        w1, _, a = heapq.heappop(heap)
        w2, _, b = heapq.heappop(heap)
        parent[a] = next_id
        parent[b] = next_id
        heapq.heappush(heap, (w1 + w2, next_id, next_id))
        next_id += 1
    lengths = np.zeros(n, dtype=np.uint8)
    for s in range(n):
        d, node = 0, s
        while parent[node] != -1:
            node = parent[node]
            d += 1
        lengths[s] = d
    return lengths


def _check(hist: np.ndarray) -> None:
    got = code_lengths(hist)
    assert got.dtype == np.uint8
    assert np.array_equal(got, _reference_code_lengths(hist))


#: counts drawn so that zeros, ties and one dominant symbol all occur
counts = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 10**6))


@given(st.lists(counts, min_size=ALPHABET, max_size=ALPHABET))
@settings(max_examples=80, deadline=None)
def test_matches_reference_on_random_histograms(values):
    _check(np.array(values, dtype=np.int64))


@given(st.integers(0, ALPHABET - 1), st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_matches_reference_on_one_symbol_inputs(symbol, count):
    hist = np.zeros(ALPHABET, dtype=np.int64)
    hist[symbol] = count
    _check(hist)


@given(st.binary(min_size=0, max_size=4096))
@settings(max_examples=40, deadline=None)
def test_matches_reference_on_byte_histograms(data):
    _check(byte_histogram(data))


def test_matches_reference_on_workload_prefixes():
    from repro.sim.rng import make_rng
    from repro.workloads import get_workload

    for name in ("pdf", "txt", "bmp"):
        data = get_workload(name).generate(64 * 4096, make_rng(3))
        for end in (4096, 16 * 4096, 64 * 4096):
            _check(byte_histogram(data[:end]))
