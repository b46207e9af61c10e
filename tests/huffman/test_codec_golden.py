"""Byte identity of the codec's output, pinned by sha256 digests.

The digests were computed with the bit-per-pass encoder and the
one-byte-per-bit assembler that the word-level codec replaced, so any
change to the bytes ``encode_block`` or ``assemble_stream`` produce fails
here. Inputs are seeded txt / pdf / bmp data at 4 KB and 128 KB under three
trees: the data's optimal tree, a foreign tree built from its first 1 KB
block only (what a speculative prefix tree looks like), and a
``max_code_length=12`` package-merge tree.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.huffman.codec import assemble_stream, encode_block
from repro.huffman.histogram import byte_histogram
from repro.huffman.lengthlimit import limited_tree
from repro.huffman.tree import HuffmanTree
from repro.workloads import get_workload

SIZES = {"4k": 4 * 1024, "128k": 128 * 1024}
SEEDS = {"txt": 11, "pdf": 12, "bmp": 13}


def _digest(packed: np.ndarray, nbits: int) -> str:
    return hashlib.sha256(f"{nbits}:".encode() + packed.tobytes()).hexdigest()


def _tree(kind: str, data: bytes) -> HuffmanTree:
    if kind == "optimal":
        return HuffmanTree.from_histogram(byte_histogram(data))
    if kind == "foreign":
        return HuffmanTree.from_histogram(byte_histogram(data[:1024]))
    return limited_tree(byte_histogram(data), 12)


def encode_case(case: str) -> str:
    workload, size, kind = case.split("-")
    data = get_workload(workload).generate(SIZES[size], seed=SEEDS[workload])
    return _digest(*encode_block(data, _tree(kind, data)))


def assemble_case() -> str:
    """1024 chained 1 KB pdf blocks under the whole input's tree."""
    data = get_workload("pdf").generate(1024 * 1024, seed=21)
    tree = HuffmanTree.from_histogram(byte_histogram(data))
    pieces, offset = [], 0
    for i in range(0, len(data), 1024):
        packed, nbits = encode_block(data[i:i + 1024], tree)
        pieces.append((offset, packed, nbits))
        offset += nbits
    return _digest(assemble_stream(pieces, offset), offset)


ENCODE_GOLDEN = {
    "txt-4k-optimal":
        "7dffabbd72390a69cc49b28a59d9265ad81769aa8e40e02507bdfadccd70d3bc",
    "txt-4k-foreign":
        "f62b018920e0d8133827dbc89d3aaa8483a19ec2cfe364685bd33a09f359f9b9",
    "txt-4k-limited12":
        "7f266f8a1d5a4046464cfde90f062c87ca8153169fad8131043ef754f70aaf98",
    "txt-128k-optimal":
        "cbaa319c105d9327c4c46c1cd8ef4df06431476de4f43a01663efb8797f34a8d",
    "txt-128k-foreign":
        "bcf9cb22db448b8603ff5a1415bb94d1de3107914fbe8617fc1fc4da93beae6e",
    "txt-128k-limited12":
        "92fbb1895ea5ec791273862889d9a7d5a1b5b571a7bac122a7a4f57dd456314c",
    "pdf-4k-optimal":
        "647b51e4516feaf16debeb93fdb3cc02e8521bbff2d3cf1acebce464a7fa4a9a",
    "pdf-4k-foreign":
        "29620f34949ea67254ae402b08fc4397ea8e17437600fea7e8cccf8e86406063",
    "pdf-4k-limited12":
        "01627e2bb0f24ac54ffb6fae2fbb204678c218aa9adeb47bb281edc6f115e6ed",
    "pdf-128k-optimal":
        "b93d6dca8f361af6762e52dcf639096c731bc021726547660d6397d9d9d27dd6",
    "pdf-128k-foreign":
        "3db251633ead294f23a0c1c97198a948cb476b4801cbe04f3b27b3940c571f26",
    "pdf-128k-limited12":
        "b93d6dca8f361af6762e52dcf639096c731bc021726547660d6397d9d9d27dd6",
    "bmp-4k-optimal":
        "d5e69d061280443a67a1e47dd534c52d9bc00e1707fe2f6a95acaf1e2a57f818",
    "bmp-4k-foreign":
        "bc407ac0eb91e28cde90420e91fd5826ea818cf1a8273f7cc99bc0c95ec67321",
    "bmp-4k-limited12":
        "d5e69d061280443a67a1e47dd534c52d9bc00e1707fe2f6a95acaf1e2a57f818",
    "bmp-128k-optimal":
        "f45765ef2e3796f43781e09625b4fe6ec6c49f561463eabc476eadb7e1238c19",
    "bmp-128k-foreign":
        "a14a60a0a1b0c49bcbe52049b2910608a62b31830654aa4ce765f3e596046546",
    "bmp-128k-limited12":
        "5b09b10906abcce3f337cbcbee66668ce96447b7d4edc2a807a4ec22f43a4006",
}

ASSEMBLE_GOLDEN = "66ab4a9735b6279a9606677245a6103de58f298f5f8c1e03fe047c5107e28121"


@pytest.mark.parametrize("case", [f"{w}-{s}-{k}" for w in SEEDS for s in SIZES
                                  for k in ("optimal", "foreign", "limited12")])
def test_encode_block_bytes_are_pinned(case):
    assert encode_case(case) == ENCODE_GOLDEN[case]


def test_assemble_stream_bytes_are_pinned():
    assert assemble_case() == ASSEMBLE_GOLDEN
