"""Unit tests for the Huffman task factories."""

import numpy as np

from repro.huffman.histogram import byte_histogram, zero_histogram
from repro.huffman.tasks import (
    DEPTH_COUNT,
    DEPTH_ENCODE,
    make_count_region,
    make_encode_region,
    make_offset_task,
    make_reduce_task,
    make_tree_task,
)
from repro.huffman.codec import decode_stream
from repro.huffman.tree import HuffmanTree


def _arr(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=np.uint8)


def test_count_task_produces_histogram():
    t = make_count_region(3, [_arr(b"aab")])
    (out,) = t.run()["hists"]
    assert out[ord("a")] == 2
    assert t.name == "count:3"
    assert t.kind == "count"
    assert t.depth == DEPTH_COUNT
    assert t.cost_hint == {"bytes": 3.0}
    assert t.tags["blocks"] == (3, 4)


def test_count_region_returns_one_histogram_per_block():
    blocks = [_arr(b"aab"), _arr(b"bbbc"), _arr(b"z")]
    t = make_count_region(8, blocks)
    hists = t.run()["hists"]
    assert t.name == "count:8-10"
    assert t.cost_hint == {"bytes": 8.0}
    assert t.tags["blocks"] == (8, 11)
    assert len(hists) == 3
    for block, hist in zip(blocks, hists):
        assert np.array_equal(hist, byte_histogram(block))


def test_reduce_task_accumulates_prefix():
    hists = [byte_histogram(b"aa"), byte_histogram(b"ab")]
    t = make_reduce_task(0, hists)
    t.deliver("prev", zero_histogram())
    out = t.run()["out"]
    assert out[ord("a")] == 3
    assert t.tags["spec_base"] is True
    assert t.cost_hint["entries"] == 256.0 * 3


def test_reduce_chains_prev():
    prev = byte_histogram(b"zzz")
    t = make_reduce_task(1, [byte_histogram(b"z")])
    t.deliver("prev", prev)
    assert t.run()["out"][ord("z")] == 4


def test_tree_task_builds_tree():
    t = make_tree_task(byte_histogram(b"aaabbc"), "tree:test")
    tree = t.run()["out"]
    assert isinstance(tree, HuffmanTree)
    assert t.kind == "tree"


def test_offset_task_chains_and_is_speculative_flagged():
    data = b"offsets here" * 10
    tree = HuffmanTree.from_histogram(byte_histogram(data))
    hists = [byte_histogram(data[i : i + 40]) for i in range(0, 120, 40)]
    t = make_offset_task("o", hists, tree, speculative=True)
    assert t.speculative
    t.deliver("prev", 100)
    out = t.run()
    assert out["offsets"][0] == 100
    assert out["cum"] == 100 + sum(tree.encoded_bits(h) for h in hists)


def test_encode_task_roundtrips():
    data = b"encode me " * 20
    tree = HuffmanTree.from_histogram(byte_histogram(data))
    t = make_encode_region("encode:nat", 7, [_arr(data)], tree, [64],
                           speculative=False)
    ((block, offset, payload, nbits),) = t.run()["pieces"]
    assert t.name == "encode:nat:7"
    assert block == 7
    assert offset == 64
    assert decode_stream(payload, nbits, tree) == data
    assert t.depth == DEPTH_ENCODE
    assert not t.speculative


def test_encode_region_returns_one_piece_per_block():
    blocks = [b"first block ", b"second one", b"third"]
    tree = HuffmanTree.from_histogram(byte_histogram(b"".join(blocks)))
    t = make_encode_region("encode:v2", 4, [_arr(b) for b in blocks], tree,
                           [0, 100, 200], speculative=True)
    pieces = t.run()["pieces"]
    assert t.name == "encode:v2:4-6"
    assert t.speculative
    assert t.cost_hint == {"bytes": float(sum(map(len, blocks)))}
    assert [(b, off) for b, off, _p, _n in pieces] == [(4, 0), (5, 100), (6, 200)]
    for data, (_b, _off, payload, nbits) in zip(blocks, pieces):
        assert decode_stream(payload, nbits, tree) == data
