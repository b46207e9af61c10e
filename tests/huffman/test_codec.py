"""Unit tests for the bit-level encoder/decoder and stream assembly."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import CodecError
from repro.huffman import codec
from repro.huffman.codec import (
    assemble_stream,
    decode_stream,
    encode_block,
    encoded_size_bits,
)
from repro.huffman.histogram import byte_histogram
from repro.huffman.tree import HuffmanTree
from repro.workloads import get_workload


def _tree(data: bytes) -> HuffmanTree:
    return HuffmanTree.from_histogram(byte_histogram(data))


def test_roundtrip_simple():
    data = b"hello huffman"
    tree = _tree(data)
    packed, nbits = encode_block(data, tree)
    assert decode_stream(packed, nbits, tree) == data


def test_roundtrip_all_byte_values():
    data = bytes(range(256)) * 7
    tree = _tree(data)
    packed, nbits = encode_block(data, tree)
    assert decode_stream(packed, nbits, tree) == data


def test_roundtrip_single_symbol_input():
    data = b"\x00" * 500
    tree = _tree(data)
    packed, nbits = encode_block(data, tree)
    assert nbits == 500  # dominant symbol gets a 1-bit code
    assert decode_stream(packed, nbits, tree) == data


def test_empty_block():
    tree = _tree(b"seed")
    packed, nbits = encode_block(b"", tree)
    assert nbits == 0
    assert decode_stream(packed, 0, tree) == b""


def test_encode_with_foreign_tree_still_decodes():
    """A (speculative) tree built from different data must still round-trip —
    the basis of tolerant speculation on Huffman (§IV)."""
    tree = _tree(b"completely different training text " * 10)
    data = bytes(np.random.default_rng(0).integers(0, 256, 400, dtype=np.uint8))
    packed, nbits = encode_block(data, tree)
    assert decode_stream(packed, nbits, tree) == data


def test_nbits_matches_size_formula():
    data = b"formula check " * 37
    tree = _tree(data)
    _, nbits = encode_block(data, tree)
    assert nbits == encoded_size_bits(byte_histogram(data), tree)


def test_optimal_tree_compresses_biased_data():
    data = b"a" * 3000 + b"bcd" * 40
    tree = _tree(data)
    _, nbits = encode_block(data, tree)
    assert nbits < len(data) * 8 / 3


def test_encode_rejects_non_uint8():
    tree = _tree(b"x")
    with pytest.raises(CodecError):
        encode_block(np.array([1, 2], dtype=np.int64), tree)


def test_decode_detects_truncation():
    data = b"truncate me please" * 4
    tree = _tree(data)
    packed, nbits = encode_block(data, tree)
    with pytest.raises(CodecError):
        decode_stream(packed, nbits + 64, tree)


def test_assemble_tiles_pieces():
    data = b"assembly line " * 11
    tree = _tree(data)
    blocks = [data[i : i + 16] for i in range(0, len(data), 16)]
    pieces = []
    offset = 0
    for b in blocks:
        packed, nbits = encode_block(b, tree)
        pieces.append((offset, packed, nbits))
        offset += nbits
    stream = assemble_stream(pieces, offset)
    assert decode_stream(stream, offset, tree) == data


def test_assemble_rejects_overlap():
    data = b"overlap"
    tree = _tree(data)
    packed, nbits = encode_block(data, tree)
    with pytest.raises(CodecError):
        assemble_stream([(0, packed, nbits), (nbits // 2, packed, nbits)],
                        nbits + nbits // 2)


def test_assemble_rejects_gap():
    data = b"gap"
    tree = _tree(data)
    packed, nbits = encode_block(data, tree)
    with pytest.raises(CodecError):
        assemble_stream([(5, packed, nbits)], nbits + 5)


def test_assemble_rejects_out_of_range():
    data = b"range"
    tree = _tree(data)
    packed, nbits = encode_block(data, tree)
    with pytest.raises(CodecError):
        assemble_stream([(0, packed, nbits)], nbits - 1)


def test_assemble_out_of_order_pieces():
    data = b"0123456789abcdef" * 8
    tree = _tree(data)
    p0, n0 = encode_block(data[:64], tree)
    p1, n1 = encode_block(data[64:], tree)
    stream = assemble_stream([(n0, p1, n1), (0, p0, n0)], n0 + n1)
    assert decode_stream(stream, n0 + n1, tree) == data


def test_long_codes_slow_path():
    """Construct a tree with codes longer than the 16-bit peek window so
    the decoder resolves them against the canonical code ranges."""
    hist = np.zeros(256, dtype=np.int64)
    # Exponential frequencies create a deep, skewed tree.
    for i in range(40):
        hist[i] = 2 ** min(i, 40)
    tree = HuffmanTree.from_histogram(hist)
    assert tree.max_length > 16
    rng = np.random.default_rng(1)
    # Sample data weighted towards rare (long-code) symbols.
    data = bytes(rng.integers(0, 40, 300, dtype=np.uint8))
    packed, nbits = encode_block(data, tree)
    assert decode_stream(packed, nbits, tree) == data


def test_long_codes_split_across_words():
    """58-bit codes cross into a second 64-bit word when encoding, and
    need a ninth lookahead byte when decoding from a bit offset above 6;
    the two deepest codes sit at every offset of a word here."""
    hist = np.zeros(256, dtype=np.int64)
    for i in range(50):
        hist[i] = 2 ** i
    tree = HuffmanTree.from_histogram(hist)
    deepest = np.flatnonzero(tree.lengths == tree.max_length)
    assert tree.max_length > 56 and tree.lengths[49] == 1
    assert np.gcd(tree.max_length + 1, 64) == 1  # 64 pairs hit 64 offsets
    # The first and last deepest codes: all-but-last-bit equal, and the
    # last one ends in a 1 that a short lookahead would lose.
    data = bytes([deepest[0], 49] * 64 + [deepest[-1], 49] * 64)
    packed, nbits = encode_block(data, tree)
    assert nbits == 128 * (tree.max_length + 1)
    assert decode_stream(packed, nbits, tree) == data


# --- entry points raise CodecError, never numpy errors ----------------------


def test_decode_rejects_negative_bit_count():
    tree = _tree(b"negative")
    packed, _ = encode_block(b"negative", tree)
    with pytest.raises(CodecError):
        decode_stream(packed, -1, tree)


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_decode_accepts_bytes_like_streams(wrap):
    data = b"bytes-like stream " * 9
    tree = _tree(data)
    packed, nbits = encode_block(data, tree)
    assert decode_stream(wrap(packed.tobytes()), nbits, tree) == data


@pytest.mark.parametrize("bad", ["text", [1, 2, 3], memoryview(b"\x00" * 4)[::2],
                                 np.array([1, 2], dtype=np.int64)])
def test_decode_rejects_non_byte_streams(bad):
    with pytest.raises(CodecError):
        decode_stream(bad, 8, _tree(b"x"))


def test_encode_rejects_non_bytes():
    with pytest.raises(CodecError):
        encode_block("text", _tree(b"x"))


def test_assemble_rejects_negative_total_bits():
    with pytest.raises(CodecError):
        assemble_stream([], -1)


def test_assemble_rejects_short_piece():
    data = b"short piece"
    tree = _tree(data)
    packed, nbits = encode_block(data, tree)
    with pytest.raises(CodecError):
        assemble_stream([(0, packed[:-2], nbits)], nbits)


def test_decode_ignores_bits_past_nbits():
    data = b"padding bits"
    tree = _tree(data)
    packed, nbits = encode_block(data, tree)
    assert nbits % 8
    dirty = packed.copy()
    dirty[-1] |= 0xFF >> (nbits % 8)
    assert decode_stream(dirty, nbits, tree) == data
    with pytest.raises(CodecError, match="overruns"):
        decode_stream(dirty, nbits - 1, tree)


def test_assemble_ignores_bits_past_a_piece():
    """A piece's padding bits never leak into its neighbour."""
    data = b"padding bits"
    tree = _tree(data)
    packed, nbits = encode_block(data, tree)
    assert nbits % 8
    dirty = packed.copy()
    dirty[-1] |= 0xFF >> (nbits % 8)
    stream = assemble_stream([(0, dirty, nbits), (nbits, packed, nbits)], 2 * nbits)
    clean = assemble_stream([(0, packed, nbits), (nbits, packed, nbits)], 2 * nbits)
    assert np.array_equal(stream, clean)


@pytest.mark.parametrize("window", [64, codec.DECODE_WINDOW_BITS])
def test_decode_detects_overrun_at_a_window_boundary(monkeypatch, window):
    """``nbits`` cut exactly at a window edge, inside the last code."""
    monkeypatch.setattr(codec, "DECODE_WINDOW_BITS", window)
    data = get_workload("txt").generate(window, seed=4)
    tree = _tree(data)
    packed, nbits = encode_block(data, tree)
    ends = np.cumsum(tree.lengths[np.frombuffer(data, dtype=np.uint8)].astype(np.int64))
    edge = next(e for e in range(window, nbits, window) if e not in set(ends))
    with pytest.raises(CodecError, match="overruns"):
        decode_stream(packed, edge, tree)
    whole = int(np.searchsorted(ends, edge, side="right"))
    assert decode_stream(packed, int(ends[whole - 1]), tree) == data[:whole]


def test_decode_and_assemble_memory_is_bounded_by_the_output():
    """No array as long as the stream: the traced peak of assembling and
    of decoding a >= 8 Mbit stream stays within its output plus a fixed
    allowance (per-bit arrays would cost ~15 B per bit, ~150 MB here)."""
    allowance = 4 << 20
    data = get_workload("pdf").generate(1280 * 1024, seed=9)
    tree = _tree(data)
    pieces, total = [], 0
    for i in range(0, len(data), 4096):
        packed, nbits = encode_block(data[i:i + 4096], tree)
        pieces.append((total, packed, nbits))
        total += nbits
    assert total >= 8_000_000
    tracemalloc.start()
    try:
        stream = assemble_stream(pieces, total)
        _, assemble_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        out = decode_stream(stream, total, tree)
        _, decode_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out == data
    assert assemble_peak < stream.nbytes + allowance
    assert decode_peak - before < len(data) + allowance
