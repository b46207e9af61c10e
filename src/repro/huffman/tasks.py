"""Task factories for the Huffman pipeline.

Each factory builds a :class:`~repro.sre.task.Task` with the right kind,
pipeline depth, cost hints (consumed by the platform cost models) and a pure
function over its inputs. Values known at creation time (block bytes, the
tree of an already-decided speculation version) are closure-captured; values
whose *timing* matters (the previous reduce/offset in a chain) flow through
ports.

``reduce``, ``tree`` and ``offset`` tasks are *local*: each sits on a
serial chain and costs less than a trip to a worker, so a live executor
that supports it runs them on its coordinator the moment they are ready
(:attr:`~repro.sre.task.Task.local`).

``count`` and ``encode`` are *region* tasks: one task over a run of
consecutive blocks, returning one histogram row / one encoded piece per
block. A one-block region is exactly the per-block task the simulated
figures were calibrated on (same name, same cost hint); the live executors
use longer regions so dispatch is paid once per region (see
:mod:`repro.huffman.pipeline`).
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from repro.huffman.codec import encode_block
from repro.huffman.histogram import ALPHABET, byte_histogram, merge_histograms
from repro.huffman.offsets import group_offsets
from repro.huffman.tree import HuffmanTree
from repro.sre.shm import BlockRef
from repro.sre.task import Task

__all__ = [
    "make_count_region",
    "make_reduce_task",
    "make_tree_task",
    "make_offset_task",
    "make_encode_region",
    "DEPTH_COUNT",
    "DEPTH_REDUCE",
    "DEPTH_TREE",
    "DEPTH_OFFSET",
    "DEPTH_ENCODE",
]

# Pipeline depths (deeper dispatches first under the depth-favouring policy).
DEPTH_COUNT = 0
DEPTH_REDUCE = 1
DEPTH_TREE = 2
DEPTH_OFFSET = 3
DEPTH_ENCODE = 4


# ---------------------------------------------------------------------------
# Kernel functions.
#
# Module-level (not closures) so a task's payload — ``functools.partial``
# over one of these plus its data — pickles cleanly and can ship to the
# process back-end's workers. The factories below bind creation-time values
# with ``partial``; values whose *timing* matters still flow through ports.
# ---------------------------------------------------------------------------

def _count_kernel(blocks: list[bytes]) -> dict[str, np.ndarray]:
    # One (K, 256) array, not K arrays: the reply pickles as one frame.
    hists = np.empty((len(blocks), ALPHABET), dtype=np.int64)
    for k, data in enumerate(blocks):
        hists[k] = byte_histogram(data)
    return {"hists": hists}


def _reduce_kernel(hists: list[np.ndarray], prev: np.ndarray) -> dict[str, np.ndarray]:
    return {"out": prev + merge_histograms(hists)}


def _tree_kernel(hist: np.ndarray, max_code_length: int | None) -> dict[str, object]:
    if max_code_length is None:
        return {"out": HuffmanTree.from_histogram(hist)}
    from repro.huffman.lengthlimit import limited_tree
    return {"out": limited_tree(hist, max_code_length)}


def _offset_kernel(hists: list[np.ndarray], tree: HuffmanTree, prev: int) -> dict[str, object]:
    offsets, end = group_offsets(hists, tree, int(prev))
    return {"offsets": offsets, "cum": end}


def _encode_kernel(blocks: list[bytes], tree: HuffmanTree, first_block: int,
                   offsets: list[int]) -> dict[str, list[tuple]]:
    pieces = []
    for k, (data, offset) in enumerate(zip(blocks, offsets)):
        payload, nbits = encode_block(data, tree)
        pieces.append((first_block + k, offset, payload.tobytes(), nbits))
    return {"pieces": pieces}


def _region_name(prefix: str, first_block: int, n: int) -> str:
    """``count:7`` for a one-block region, ``count:8-15`` for a longer one."""
    if n == 1:
        return f"{prefix}:{first_block}"
    return f"{prefix}:{first_block}-{first_block + n - 1}"


def make_count_region(first_block: int, blocks: Sequence[bytes],
                      refs: Sequence[BlockRef | bytes] | None = None) -> Task:
    """First-pass histograms of the consecutive blocks from ``first_block``.

    Outputs ``hists``, a ``(len(blocks), 256)`` array: one histogram row
    per block. When ``refs`` is given (shared-memory transport) the
    payload binds those per-block bindings — a stored block's handle,
    else its bytes — instead of ``blocks``; cost hints still reflect the
    real size.
    """
    return Task(
        _region_name("count", first_block, len(blocks)),
        partial(_count_kernel, list(blocks if refs is None else refs)),
        kind="count",
        depth=DEPTH_COUNT,
        cost_hint={"bytes": float(sum(map(len, blocks)))},
        tags={"blocks": (first_block, first_block + len(blocks))},
    )


def make_reduce_task(index: int, group_hists: Sequence[np.ndarray]) -> Task:
    """Running reduction: previous prefix histogram + this group's counts.

    Input port ``prev`` carries the cumulative histogram of all earlier
    groups; the group's own histograms are closure-captured (they exist when
    the task is created — group completion is its creation trigger).
    """
    hists = list(group_hists)
    return Task(
        f"reduce:{index}",
        partial(_reduce_kernel, hists),
        inputs=("prev",),
        kind="reduce",
        local=True,
        depth=DEPTH_REDUCE,
        cost_hint={"entries": float(ALPHABET * (len(hists) + 1))},
        tags={"reduce_index": index, "spec_base": True},
    )


def make_tree_task(hist: np.ndarray, name: str,
                   max_code_length: int | None = None) -> Task:
    """Huffman-tree build from a histogram (serial bottleneck / predictor).

    Used three ways: the natural pipeline's final tree, speculative
    predictions from prefix histograms, and check candidates — same kind,
    same cost. ``max_code_length`` switches to the package-merge
    length-limited construction (every code fits the decoder's fast table).
    """
    return Task(
        name,
        partial(_tree_kernel, hist, max_code_length),
        kind="tree",
        local=True,
        depth=DEPTH_TREE,
        cost_hint={"entries": float(ALPHABET)},
    )


def make_offset_task(
    name: str,
    group_hists: Sequence[np.ndarray],
    tree: HuffmanTree,
    *,
    speculative: bool,
) -> Task:
    """Offset-chain link: bit positions for one encode group.

    Port ``prev`` carries the previous group's end offset; outputs the
    per-block ``offsets`` array and the chain continuation ``cum``.
    """
    hists = list(group_hists)
    return Task(
        name,
        partial(_offset_kernel, hists, tree),
        inputs=("prev",),
        kind="offset",
        local=True,
        depth=DEPTH_OFFSET,
        speculative=speculative,
        cost_hint={"units": float(len(hists))},
    )


def make_encode_region(
    name: str,
    first_block: int,
    blocks: Sequence[bytes],
    tree: HuffmanTree,
    offsets: Sequence[int],
    *,
    speculative: bool,
    refs: Sequence[BlockRef | bytes] | None = None,
    tree_ref: BlockRef | None = None,
) -> Task:
    """Second-pass encode of consecutive blocks at known bit offsets.

    ``name`` is the task-name prefix (``encode:v1``); the region's block
    span completes it. Outputs ``pieces``: one ``(block, offset, payload,
    nbits)`` tuple per block, ``payload`` the packed piece as ``bytes``.
    """
    return Task(
        _region_name(name, first_block, len(blocks)),
        partial(_encode_kernel, list(blocks if refs is None else refs),
                tree if tree_ref is None else tree_ref, first_block,
                [int(o) for o in offsets]),
        kind="encode",
        depth=DEPTH_ENCODE,
        speculative=speculative,
        cost_hint={"bytes": float(sum(map(len, blocks)))},
        tags={"blocks": (first_block, first_block + len(blocks))},
    )
