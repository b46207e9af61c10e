"""Huffman tree construction (Huffman 1952) and the tree value object.

The tree build is the paper's serial bottleneck: it needs the *global*
histogram, i.e. the whole input must have been counted before it can run —
unless a speculative tree is built from a prefix histogram instead.

We produce *canonical* codes (lengths determine everything), which makes
tree values cheap to compare, serialise and validate. Zero frequencies are
clamped to one so every byte value receives a code; see the package
docstring for why speculation requires total trees. Clamping also bounds
code lengths: with all weights >= 1 the deepest leaf of a Huffman tree over
n symbols and total weight W is O(log_phi W) < 64 for any realistic input,
so codes fit comfortably in uint64.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CodecError
from repro.huffman.histogram import ALPHABET

__all__ = ["code_lengths", "HuffmanTree"]


def code_lengths(hist: np.ndarray) -> np.ndarray:
    """Optimal prefix-code lengths for a 256-entry frequency histogram.

    Classic heap algorithm; deterministic tie-breaking (by node creation
    order) so identical histograms always give identical trees. Returns a
    256-entry uint8 array of code lengths (all >= 1).
    """
    if hist.shape != (ALPHABET,):
        raise CodecError(f"histogram has shape {hist.shape}, expected ({ALPHABET},)")
    if np.any(hist < 0):
        raise CodecError("histogram contains negative counts")
    # Every symbol gets a code (speculative trees must be total), but naive
    # +1 clamping gives absent symbols a combined mass of up to 256 counts —
    # significant against a small prefix histogram and a source of spurious
    # check errors. Scaling true counts by 256 first leaves the optimal tree
    # over present symbols unchanged while making each absent symbol worth
    # only 1/256th of a count.
    weights = hist.astype(np.int64) * 256
    weights[weights == 0] = 1

    # Heap items: (weight, node_id). Leaves are 0..255; internal nodes get
    # successive ids, so ties break by creation order and identical
    # histograms always give identical trees. Plain Python ints throughout:
    # the loop runs 255 times on the coordinator's serial tree chain.
    n = ALPHABET
    heap = list(zip(weights.tolist(), range(n)))
    heapq.heapify(heap)
    parent = [0] * (2 * n - 1)
    next_id = n
    while len(heap) > 1:
        w1, a = heapq.heappop(heap)
        w2, b = heap[0]
        parent[a] = parent[b] = next_id
        heapq.heapreplace(heap, (w1 + w2, next_id))
        next_id += 1

    # A parent's id exceeds its children's, so one sweep from the root
    # (the last id) down fills every node's depth from its parent's.
    depth = [0] * (2 * n - 1)
    for node in range(2 * n - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    lengths = depth[:n]
    if max(lengths) > 63:  # pragma: no cover - unreachable with n=256 leaves
        raise CodecError(f"invalid code length {max(lengths)}")
    return np.array(lengths, dtype=np.uint8)


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Canonical code words (uint64) for the given code lengths.

    Symbols are ranked by (length, symbol value); codes are assigned in
    rank order, shifting left when the length increases — the standard
    canonical Huffman construction (as used by DEFLATE).
    """
    order = np.lexsort((np.arange(ALPHABET), lengths)).tolist()
    lens = lengths.tolist()
    codes = [0] * ALPHABET
    code = 0
    prev_len = lens[order[0]]
    for sym in order:
        length = lens[sym]
        code <<= length - prev_len
        codes[sym] = code
        code += 1
        prev_len = length
    return np.array(codes, dtype=np.uint64)


def _validate_kraft(lengths: np.ndarray) -> None:
    """Code lengths must satisfy Kraft's equality for a full prefix code."""
    kraft = np.sum(2.0 ** -lengths.astype(np.float64))
    if not np.isclose(kraft, 1.0, rtol=0, atol=1e-9):
        raise CodecError(f"code lengths violate Kraft equality (sum={kraft})")


@dataclass(frozen=True)
class HuffmanTree:
    """A complete canonical Huffman code over all 256 byte values.

    This is the *value* that flows along the speculated DFG edge: the
    outcome of a ``tree`` task, whether built from the global histogram or
    speculatively from a prefix.
    """

    lengths: np.ndarray  # (256,) uint8
    codes: np.ndarray = field(default=None)  # (256,) uint64, canonical

    def __post_init__(self) -> None:
        if self.lengths.shape != (ALPHABET,):
            raise CodecError("tree lengths must have 256 entries")
        if np.any(self.lengths < 1) or np.any(self.lengths > 63):
            raise CodecError("code lengths must be in [1, 63]")
        _validate_kraft(self.lengths)
        if self.codes is None:
            object.__setattr__(self, "codes", _canonical_codes(self.lengths))

    @classmethod
    def from_histogram(cls, hist: np.ndarray) -> "HuffmanTree":
        """Build the optimal (canonical, total) tree for a histogram."""
        return cls(lengths=code_lengths(hist))

    @property
    def max_length(self) -> int:
        return int(self.lengths.max())

    def encoded_bits(self, hist: np.ndarray) -> int:
        """Compressed size, in bits, of data with this histogram under this tree."""
        return int(hist.astype(np.int64) @ self.lengths.astype(np.int64))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HuffmanTree):
            return NotImplemented
        return bool(np.array_equal(self.lengths, other.lengths))

    def __hash__(self) -> int:
        return hash(self.lengths.tobytes())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<HuffmanTree max_len={self.max_length}>"
