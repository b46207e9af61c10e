"""Byte histograms — the ``count`` and ``reduce`` kernels.

Vectorised per the HPC guides: ``np.bincount`` over a zero-copy byte view
does the counting; merging is array addition (the reduce exploits the
commutativity/associativity the paper calls out in §IV-A).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import CodecError

__all__ = [
    "byte_histogram",
    "merge_histograms",
    "zero_histogram",
    "ALPHABET",
]

#: Number of symbols: one per possible byte value.
ALPHABET = 256


def zero_histogram() -> np.ndarray:
    """A fresh all-zero 256-entry histogram (int64)."""
    return np.zeros(ALPHABET, dtype=np.int64)


def byte_histogram(data: bytes | bytearray | memoryview | np.ndarray) -> np.ndarray:
    """Character-frequency histogram of a data block.

    Accepts any bytes-like or a uint8 array; returns a 256-entry int64
    array. Empty input yields the zero histogram.
    """
    if isinstance(data, np.ndarray):
        if data.dtype != np.uint8:
            raise CodecError(f"histogram input array must be uint8, got {data.dtype}")
        view = data
    else:
        view = np.frombuffer(data, dtype=np.uint8)
    if view.size == 0:
        return zero_histogram()
    return np.bincount(view, minlength=ALPHABET).astype(np.int64)


def merge_histograms(hists: Iterable[np.ndarray]) -> np.ndarray:
    """Sum histograms into one (the ``reduce`` kernel)."""
    total = zero_histogram()
    for h in hists:
        if h.shape != (ALPHABET,):
            raise CodecError(f"histogram has shape {h.shape}, expected ({ALPHABET},)")
        total += h
    return total
