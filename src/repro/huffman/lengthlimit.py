"""Length-limited Huffman codes via the package-merge algorithm.

Unrestricted Huffman codes over skewed histograms can produce codes longer
than the decoder's fast-table width (``codec.PEEK_BITS``), pushing symbols
onto the decoder's canonical-range lookup. Package-merge (Larmore &
Hirschberg 1990) computes the *optimal* prefix code subject to a maximum
length ``L`` in O(n·L); with ``L = 16`` every code decodes in one table hit.

This is an extension beyond the paper (its encoder never limits lengths);
the runtime accepts either flavour — a length-limited tree is just another
:class:`~repro.huffman.tree.HuffmanTree` value flowing along the speculated
edge.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodecError
from repro.huffman.histogram import ALPHABET
from repro.huffman.tree import HuffmanTree

__all__ = ["limited_code_lengths", "limited_tree"]


def limited_code_lengths(hist: np.ndarray, max_length: int = 16) -> np.ndarray:
    """Optimal code lengths with every code at most ``max_length`` bits.

    Uses the package-merge ("coin collector") formulation: to shorten a
    symbol's code below length L costs choosing it in the 2^-l denomination
    lists; the n-1 cheapest packages at denomination 1/2 determine lengths.
    All 256 symbols receive codes (zero counts weigh as if scaled, exactly
    like :func:`~repro.huffman.tree.code_lengths`).
    """
    if hist.shape != (ALPHABET,):
        raise CodecError(f"histogram has shape {hist.shape}, expected ({ALPHABET},)")
    if np.any(hist < 0):
        raise CodecError("histogram contains negative counts")
    if not (1 <= max_length <= 63):
        raise CodecError("max_length must be in [1, 63]")
    if (1 << max_length) < ALPHABET:
        raise CodecError(
            f"max_length {max_length} cannot encode {ALPHABET} symbols"
        )
    weights = hist.astype(np.int64) * 256
    weights[weights == 0] = 1

    n = ALPHABET
    # Each item: (weight, frozen symbol multiset as a count vector is too
    # heavy; carry symbol index lists). n·L is small (256·16) so plain
    # Python lists are fine.
    lengths = np.zeros(n, dtype=np.uint8)
    # packages[l] = list of (weight, [symbols]) at denomination 2^-(l)
    prev: list[tuple[int, list[int]]] = []
    for level in range(max_length, 0, -1):
        items = [(int(weights[s]), [s]) for s in range(n)]
        merged = sorted(items + prev, key=lambda t: t[0])
        # package pairs for the next (coarser) denomination
        prev = [
            (merged[i][0] + merged[i + 1][0], merged[i][1] + merged[i + 1][1])
            for i in range(0, len(merged) - 1, 2)
        ]
    # Choose the 2n-2 cheapest half-packages... prev now holds packages of
    # denomination 1/2 after the level-1 pass; take the cheapest n-1.
    chosen = prev[: n - 1]
    for _weight, symbols in chosen:
        for s in symbols:
            lengths[s] += 1
    if np.any(lengths == 0) or int(lengths.max()) > max_length:
        raise CodecError("package-merge produced invalid lengths")  # pragma: no cover
    # Kraft check is enforced by HuffmanTree on construction.
    return lengths


def limited_tree(hist: np.ndarray, max_length: int = 16) -> HuffmanTree:
    """A canonical, total, length-limited tree for ``hist``."""
    return HuffmanTree(lengths=limited_code_lengths(hist, max_length))
