"""The codec against a bit-string oracle, across many decode-window edges.

The oracle spells every code out as a string of '0'/'1' characters
(``format(code, f"0{len}b")``) and decodes bit by bit against the code
book, so it shares nothing with the word-level encoder or the windowed
decoder. The decoder runs with ``DECODE_WINDOW_BITS`` patched down to 64
bits, so every stream longer than that crosses window edges, and codes —
including codes longer than ``PEEK_BITS`` — straddle them.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.huffman import codec
from repro.huffman.codec import PEEK_BITS, decode_stream, encode_block
from repro.huffman.histogram import byte_histogram
from repro.huffman.lengthlimit import limited_tree
from repro.huffman.tree import HuffmanTree

WINDOW = 64


def oracle_bits(data: bytes, tree: HuffmanTree) -> str:
    return "".join(format(int(tree.codes[b]), f"0{int(tree.lengths[b])}b") for b in data)


def oracle_pack(bits: str) -> np.ndarray:
    padded = bits + "0" * (-len(bits) % 8)
    return np.frombuffer(int(padded or "0", 2).to_bytes(len(padded) // 8, "big"),
                         dtype=np.uint8)


def oracle_decode(bits: str, tree: HuffmanTree) -> bytes:
    book = {format(int(c), f"0{int(n)}b"): s
            for s, (c, n) in enumerate(zip(tree.codes, tree.lengths))}
    out, code = bytearray(), ""
    for bit in bits:
        code += bit
        if code in book:
            out.append(book[code])
            code = ""
    assert code == "", "stream ends inside a code"
    return bytes(out)


def skewed_tree() -> HuffmanTree:
    """The deep tree of ``test_long_codes_slow_path``: exponential counts."""
    hist = np.zeros(256, dtype=np.int64)
    for i in range(40):
        hist[i] = 2 ** i
    return HuffmanTree.from_histogram(hist)


def small_window():
    return mock.patch.object(codec, "DECODE_WINDOW_BITS", WINDOW)


@st.composite
def data_and_tree(draw):
    data = draw(st.binary(min_size=0, max_size=600))
    kind = draw(st.sampled_from(["own", "foreign", "limited", "skewed"]))
    if kind == "own":
        tree = HuffmanTree.from_histogram(byte_histogram(data))
    elif kind == "foreign":
        tree = HuffmanTree.from_histogram(byte_histogram(draw(st.binary(max_size=64))))
    elif kind == "limited":
        tree = limited_tree(byte_histogram(data), draw(st.integers(8, 16)))
    else:
        tree = skewed_tree()
    return data, tree


@given(data_and_tree())
@settings(max_examples=150, deadline=None)
def test_encode_block_equals_oracle(case):
    data, tree = case
    bits = oracle_bits(data, tree)
    packed, nbits = encode_block(data, tree)
    assert nbits == len(bits)
    assert packed.tobytes() == oracle_pack(bits).tobytes()


@given(data_and_tree())
@settings(max_examples=150, deadline=None)
def test_decode_of_oracle_stream_across_window_edges(case):
    data, tree = case
    bits = oracle_bits(data, tree)
    assert oracle_decode(bits, tree) == data
    with small_window():
        assert decode_stream(oracle_pack(bits), len(bits), tree) == data


@pytest.mark.parametrize("window", [17, 63, 64, 65, 100])
def test_long_code_straddles_a_window_edge(window):
    tree = skewed_tree()
    short = int(np.argmin(tree.lengths))
    deep = int(np.argmax(tree.lengths))
    long_len = int(tree.lengths[deep])
    assert long_len > PEEK_BITS
    # Enough short codes that the deep code starts just before the edge.
    k = (window - 3) // int(tree.lengths[short])
    data = bytes([short] * k + [deep] + [short] * 5 + [deep, deep])
    start = k * int(tree.lengths[short])
    assert start < window < start + long_len
    bits = oracle_bits(data, tree)
    with mock.patch.object(codec, "DECODE_WINDOW_BITS", window):
        assert decode_stream(oracle_pack(bits), len(bits), tree) == data
