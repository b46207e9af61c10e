"""Bit-level Huffman encoding and decoding on 64-bit words.

Encoding packs whole code words, not bits (HPC guide idiom: replace the
per-byte Python loop with a handful of NumPy passes): each symbol's code,
left-aligned in a uint64, lands in at most two 64-bit output words, whose
index and bit offset come from a prefix sum of the code lengths. The
contributions are disjoint, so one OR-reduction per word assembles them.

Decoding is canonical-Huffman table decoding in fixed windows of
``DECODE_WINDOW_BITS`` bit positions: a flat ``PEEK_BITS``-wide table gives
the code length at every position of the window, codes longer than the
table resolve against the canonical code ranges, and the chain of code
starts ``pos -> pos + len[pos]`` is found by pointer doubling — no
per-symbol Python loop, and no array as long as the stream. Decoding backs
the round-trip verifier every run and served job performs by default, so
it sets the coordinator's memory peak and takes most of a served job's
time; it must stay bounded and fast.
"""

from __future__ import annotations

import io
from typing import Iterable

import numpy as np

from repro.errors import CodecError
from repro.huffman.histogram import ALPHABET
from repro.huffman.tree import HuffmanTree

__all__ = [
    "encode_block",
    "encoded_size_bits",
    "assemble_stream",
    "decode_stream",
]

#: Width of the fast decode table. Codes no longer than this decode in one
#: table hit; longer codes resolve against the canonical code ranges.
PEEK_BITS = 16

#: Candidate code-start positions the decoder resolves per window. Every
#: array the decoder builds is sized by this (plus a few bytes of
#: lookahead), never by the stream.
DECODE_WINDOW_BITS = 1 << 16

#: Pointer-doubling rounds run over every position of a window before the
#: chain search narrows to the positions those jumps land on.
_DENSE_ROUNDS = 4

_U64 = np.uint64
_SUB_BITS = np.arange(8, dtype=np.intp)


def _byte_array(data, what: str) -> np.ndarray:
    """``data`` as a flat uint8 array (bytes-like input is viewed, not copied)."""
    if isinstance(data, np.ndarray):
        if data.dtype != np.uint8:
            raise CodecError(f"{what} must be uint8, got {data.dtype}")
        return data.reshape(-1)
    try:
        return np.frombuffer(data, dtype=np.uint8)
    except (TypeError, BufferError) as exc:
        raise CodecError(f"{what} must be contiguous bytes, got {type(data).__name__}") from exc


def encoded_size_bits(hist: np.ndarray, tree: HuffmanTree) -> int:
    """Exact compressed size (bits) of data with histogram ``hist``."""
    return tree.encoded_bits(hist)


def encode_block(data: bytes | np.ndarray, tree: HuffmanTree) -> tuple[np.ndarray, int]:
    """Encode one block; returns (packed bytes as uint8 array, bit count).

    The packed array is MSB-first (``np.packbits`` convention), padded with
    zero bits to a byte boundary.
    """
    syms = _byte_array(data, "encode input")
    if syms.size == 0:
        return np.zeros(0, dtype=np.uint8), 0
    table_lens = tree.lengths.astype(_U64)
    lens = table_lens[syms]
    # Codes are 1..63 bits, so the left-aligning shift is 1..63.
    left = (tree.codes << (_U64(64) - table_lens))[syms]
    starts = np.cumsum(lens)
    total = int(starts[-1])
    starts -= lens
    offset = starts & _U64(63)
    word = starts >> _U64(6)
    # Consecutive starts are < 64 bits apart, so the words holding a code
    # start are 0..k-1 without a hole; `heads` opens each word's run.
    heads = np.flatnonzero(np.concatenate(([True], word[1:] != word[:-1])))
    nwords = (total + 63) >> 6
    words = np.zeros(nwords + 1, dtype=_U64)
    words[: heads.size] = np.bitwise_or.reduceat(left >> offset, heads)
    # The bits that spill past a word: a shift by 64 - offset, taken as
    # 1 + (63 - offset) so that offset 0 spills nothing instead of shifting
    # by 64.
    spill = (left << _U64(1)) << (_U64(63) - offset)
    words[1 : heads.size + 1] |= np.bitwise_or.reduceat(spill, heads)
    return words[:nwords].astype(">u8").view(np.uint8)[: (total + 7) >> 3], total


def assemble_stream(
    pieces: Iterable[tuple[int, np.ndarray, int]], total_bits: int
) -> np.ndarray:
    """Place encoded pieces at their bit offsets in one contiguous stream.

    Args:
        pieces: iterables of ``(bit_offset, packed_bytes, nbits)``.
        total_bits: length of the assembled stream in bits.

    Returns the packed stream (uint8, MSB-first). Overlapping or
    out-of-range pieces raise — offsets come from the offset chain and must
    tile the stream exactly.
    """
    total_bits = int(total_bits)
    if total_bits < 0:
        raise CodecError(f"stream length must be non-negative, got {total_bits}")
    placed = []
    for offset, packed, nbits in pieces:
        offset, nbits = int(offset), int(nbits)
        if offset < 0 or nbits < 0 or offset + nbits > total_bits:
            raise CodecError(
                f"piece [{offset}, {offset + nbits}) outside stream of {total_bits} bits"
            )
        if nbits == 0:
            continue
        data = _byte_array(packed, "piece")
        if data.size * 8 < nbits:
            raise CodecError(f"piece claims {nbits} bits but has {data.size * 8}")
        placed.append((offset, nbits, data))
    placed.sort(key=lambda piece: piece[0])
    stream = np.zeros((total_bits + 7) >> 3, dtype=np.uint8)
    end = 0
    for offset, nbits, data in placed:
        if offset < end:
            raise CodecError(f"piece at offset {offset} overlaps assembled data")
        if offset > end:
            raise CodecError("assembled stream has gaps")
        end = offset + nbits
        nbytes = (nbits + 7) >> 3
        src = data[:nbytes]
        if nbits & 7:  # clear whatever follows the piece's last bit
            src = src.copy()
            src[-1] &= (0xFF00 >> (nbits & 7)) & 0xFF
        byte, shift = offset >> 3, offset & 7
        if shift == 0:
            stream[byte : byte + nbytes] |= src
            continue
        stream[byte : byte + nbytes] |= src >> shift
        spill = min(nbytes, stream.size - byte - 1)
        stream[byte + 1 : byte + 1 + spill] |= src[:spill] << (8 - shift)
    if end != total_bits:
        raise CodecError("assembled stream has gaps")
    return stream


class _DecodeTables:
    """Canonical decode tables for one tree.

    ``lut_lens``/``lut_syms`` map every ``peek``-bit value to the code it
    starts with (length 0: a code longer than ``peek``). ``left`` holds
    each code left-aligned in 64 bits in canonical rank order; those
    values are increasing and tile ``[0, 2**64)``, so the code a 64-bit
    value starts with is the last one not above it.
    """

    def __init__(self, tree: HuffmanTree) -> None:
        lengths = tree.lengths.astype(np.int64)
        self.max_len = int(lengths.max())
        self.peek = min(PEEK_BITS, self.max_len)
        self.rank_syms = np.lexsort((np.arange(ALPHABET), lengths)).astype(np.uint8)
        self.rank_lens = tree.lengths[self.rank_syms]
        self.left = tree.codes[self.rank_syms] << (_U64(64) - self.rank_lens.astype(_U64))
        # Left-aligned to `peek` bits the short codes tile a prefix of the
        # table in rank order, each covering 2**(peek - len) entries.
        short = self.rank_lens <= self.peek
        spans = 1 << (self.peek - self.rank_lens[short].astype(np.int64))
        n_short = int(spans.sum())
        self.lut_lens = np.zeros(1 << self.peek, dtype=np.uint8)
        self.lut_syms = np.zeros(1 << self.peek, dtype=np.uint8)
        self.lut_lens[:n_short] = np.repeat(self.rank_lens[short], spans)
        self.lut_syms[:n_short] = np.repeat(self.rank_syms[short], spans)

    def resolve_long(self, win: np.ndarray, rel: np.ndarray) -> np.ndarray:
        """Canonical rank of the code at each window bit position ``rel``."""
        byte = rel >> 3
        value = np.zeros(rel.size, dtype=_U64)
        for k in range(8):
            value |= win[byte + k].astype(_U64) << _U64(56 - 8 * k)
        shift = (rel & 7).astype(_U64)
        value = (value << shift) | (win[byte + 8].astype(_U64) >> (_U64(8) - shift))
        return np.searchsorted(self.left, value, side="right") - 1


def _chain_starts(lens: np.ndarray) -> np.ndarray:
    """Positions of the chain ``0 -> len[0] -> ...`` below ``lens.size``.

    Pointer doubling: ``jumps[k][i]`` is the position ``2**k`` codes after
    ``i`` (``n`` is the sink). Chains from different positions merge
    within a few codes, so after ``_DENSE_ROUNDS`` rounds over every
    position the landing spots of ``jumps[-1]`` are few, and the doubling
    continues over those alone until the chain from 0 reaches the sink.
    The lower jumps then fill in the codes between.
    """
    n = lens.size
    jump = np.empty(n + 1, dtype=np.int32)
    np.minimum(np.arange(n, dtype=np.int32) + lens, n, out=jump[:n])
    jump[n] = n
    jumps = [jump]
    for _ in range(_DENSE_ROUNDS):
        jump = np.take(jump, jump)
        jumps.append(jump)
    spots = np.zeros(n + 1, dtype=bool)
    spots[jump] = True
    spots[0] = True
    cand = np.flatnonzero(spots).astype(np.int32)  # cand[0] == 0, cand[-1] == n
    rank = np.empty(n + 1, dtype=np.int32)
    rank[cand] = np.arange(cand.size, dtype=np.int32)
    hop = np.take(rank, np.take(jump, cand))
    sink = cand.size - 1
    mark = np.zeros(cand.size, dtype=bool)
    mark[0] = True
    while hop[0] != sink:
        mark[np.compress(mark, hop)] = True
        hop = np.take(hop, hop)
    # Each lower jump adds the codes halfway between the ones found so far.
    found = [np.compress(mark, cand)]
    for jump in reversed(jumps[:-1]):
        found.append(np.take(jump, np.concatenate(found)))
    on_chain = np.zeros(n + 1, dtype=bool)
    on_chain[np.concatenate(found)] = True
    return np.flatnonzero(on_chain[:n])


def _decode_window(
    buf: np.ndarray, nbits: int, pos: int, tables: _DecodeTables
) -> tuple[np.ndarray, int]:
    """Decode the codes starting in ``[pos, pos + DECODE_WINDOW_BITS)``.

    ``pos`` is a code boundary. Returns the symbols and the position just
    past the last code, which starts the next window.
    """
    n = min(DECODE_WINDOW_BITS, nbits - pos)
    first, lead = pos >> 3, pos & 7
    # The window's bytes plus lookahead for a 63-bit code at its last
    # position. Bits past `nbits` need no clearing: a code that ends by
    # `nbits` is fixed by the bits before it, and one that does not is an
    # overrun whatever follows.
    nbytes = ((lead + n) >> 3) + 10
    win = np.zeros(nbytes, dtype=np.uint8)
    avail = min(nbytes, buf.size - first)
    win[:avail] = buf[first : first + avail]

    # The `peek` bits at every position: a big-endian 32-bit gather per
    # byte, shifted right by what follows each of its 8 bit offsets.
    w = win.astype(np.intp)
    w32 = (w[:-3] << 24) | (w[1:-2] << 16) | (w[2:-1] << 8) | w[3:]
    span = (lead + n + 7) >> 3
    peek = (w32[:span, None] >> (32 - tables.peek - _SUB_BITS)).reshape(-1)
    peek = peek[lead : lead + n] & ((1 << tables.peek) - 1)
    lens = np.take(tables.lut_lens, peek)
    has_long = tables.max_len > tables.peek
    if has_long:
        long_at = np.flatnonzero(lens == 0)
        long_ranks = tables.resolve_long(win, long_at + lead)
        lens[long_at] = tables.rank_lens[long_ranks]
    starts = _chain_starts(lens)

    last = int(starts[-1])
    end = pos + last + int(lens[last])
    if end > nbits:
        raise CodecError(f"corrupt stream: code at bit {pos + last} overruns the end")
    peek = np.take(peek, starts)
    syms = np.take(tables.lut_syms, peek)
    if has_long:
        at = np.flatnonzero(np.take(tables.lut_lens, peek) == 0)
        syms[at] = tables.rank_syms[long_ranks[np.searchsorted(long_at, starts[at])]]
    return syms, end


def decode_stream(packed: np.ndarray | bytes, nbits: int, tree: HuffmanTree) -> bytes:
    """Decode ``nbits`` of a packed canonical-Huffman stream back to bytes.

    Works window by window (see the module docstring); the only array that
    grows with the stream is the decoded output.
    """
    buf = _byte_array(packed, "packed stream")
    nbits = int(nbits)
    if nbits < 0:
        raise CodecError(f"bit count must be non-negative, got {nbits}")
    if buf.size * 8 < nbits:
        raise CodecError(f"stream holds {buf.size * 8} bits, {nbits} claimed")
    if nbits == 0:
        return b""
    tables = _DecodeTables(tree)
    # BytesIO hands its buffer over without a copy on getvalue().
    out = io.BytesIO()
    pos = 0
    while pos < nbits:
        syms, pos = _decode_window(buf, nbits, pos, tables)
        out.write(syms)
    return out.getvalue()
