"""The streaming Huffman pipeline — speculative and non-speculative.

Orchestrates the paper's Fig. 2 data-flow graphs over the SRE runtime:

* blocks arrive (``feed_block``) → ``count`` tasks;
* complete reduce-groups spawn the running ``reduce`` chain; each reduce is
  flagged as a *speculation base*, so its completion bubbles through the
  SuperTask hierarchy (§III-B) and is offered to the
  :class:`~repro.core.manager.SpeculationManager` as an update;
* the manager builds speculative trees from prefix histograms, launches
  speculative second passes (offset chain → encodes → wait buffer), checks
  them against fresh prefixes under the tolerance margin, and rolls back or
  commits;
* the non-speculative path (or the recompute path after a failed final
  check) runs the same second pass with the true tree, emitting directly.

The version / barrier / commit plumbing is the shared
:class:`~repro.core.stream.SpeculativeStream`; this module supplies the
update chain, the tree predictor, the size validator, the second pass and
the commit hook that releases a block's shared-memory ref.

Everything here is executor-agnostic — the same pipeline runs under the
simulated executor (paper figures) and the live ones (threads, procs,
dist) — with one exception, the region length K. ``count`` and ``encode``
are *region* tasks over up to K consecutive blocks: a count region never
crosses a reduce group and is spawned once its last block has arrived; an
encode region never crosses an offset group and belongs to exactly one
version. Completion still runs per block (latency stamps, wait-buffer
deposits, wasted-encode accounting), so only the task population depends
on K. :func:`region_blocks` fixes K from the executor: 1 on ``sim``, so
the simulated figures keep their per-block tasks, and
``REGION_BYTES // block_size`` on the live executors, where a 4 KB block's
dispatch costs more than its kernel.

A region ships flat: its blocks are the ``bytes`` objects the source fed
(shared-memory refs under the shm transport), a count region replies with
one ``(K, 256)`` histogram array and an encode region with ``bytes``
pieces, so pickling a region costs a few frames, not one array per block.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.spec import SpecVersion
from repro.core.stream import SpeculationConfig, SpeculativeStream, pass_label
from repro.errors import ExperimentError
from repro.huffman.checkers import compression_size_error
from repro.huffman.codec import assemble_stream, decode_stream
from repro.huffman.histogram import zero_histogram
from repro.huffman.tasks import (
    make_count_region,
    make_encode_region,
    make_offset_task,
    make_reduce_task,
    make_tree_task,
)
from repro.huffman.tree import HuffmanTree
from repro.sre.runtime import Runtime
from repro.sre.shm import BlockRef, BlockStore
from repro.sre.task import Task

__all__ = ["HuffmanConfig", "HuffmanPipeline", "PipelineResult", "REGION_BYTES",
           "region_blocks"]

#: Most block bytes one live ``count`` / ``encode`` region covers (K = 32
#: at 4 KB blocks). The cap amortises dispatch: every region pays one
#: coordinator -> worker round trip, which costs more than a 4 KB block's
#: kernel. On a 2-core host batch pdf over dist ran at a median 15.1 MB/s
#: with 128 KiB regions and 14.6 MB/s with 64 KiB ones (6 alternating
#: rounds, 128 KiB ahead in 5). Half the process executor's
#: ``BATCH_BYTES``, so a region still rides in a batch.
REGION_BYTES = 128 * 1024


def region_blocks(executor: str, block_size: int) -> int:
    """Region length K for a run on ``executor``.

    1 on ``sim``: the simulated figures, claims and bench gate were
    calibrated on per-block tasks. Elsewhere as many blocks as fit in
    :data:`REGION_BYTES` (at least one). Fixed per run, never measured:
    a timing-dependent K would make the task population — and with it
    fault indices and replay — depend on timing.
    """
    if executor == "sim":
        return 1
    return max(1, REGION_BYTES // block_size)


@dataclass
class HuffmanConfig(SpeculationConfig):
    """Pipeline parameters (paper §V-A "Parametrization").

    Defaults follow the x86 disk configuration: 4 KB blocks, 16:1 reduce
    ratio, 64-wide offset fan-out, verification every 8th reduce, 1 %
    tolerance (the speculation knobs are :class:`SpeculationConfig`'s).
    The socket configuration drops both ratios to 8:1.
    """

    block_size: int = 4096
    reduce_ratio: int = 16
    offset_fanout: int = 64
    #: build length-limited (package-merge) trees instead of plain Huffman;
    #: bounds decoder table size at a tiny compression cost.
    max_code_length: int | None = None
    #: most consecutive blocks one count / encode task covers (K); see
    #: :func:`region_blocks`. 1 = one task per block.
    region_blocks: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if min(self.block_size, self.reduce_ratio, self.offset_fanout,
               self.region_blocks) < 1:
            raise ExperimentError(
                "block_size, reduce_ratio, offset_fanout, region_blocks "
                "must be >= 1")
        if self.max_code_length is not None and not (8 <= self.max_code_length <= 63):
            raise ExperimentError("max_code_length must be in [8, 63]")


@dataclass
class PipelineResult:
    """Everything an experiment reports about one run."""

    n_blocks: int
    outcome: str  # "non_speculative" | "commit" | "recompute"
    arrivals: np.ndarray
    completions: np.ndarray
    latencies: np.ndarray
    commit_latencies: np.ndarray
    completion_time: float
    compressed_bits: int
    input_bytes: int
    wasted_encodes: int
    spec_stats: dict[str, float] = field(default_factory=dict)
    runtime_stats: dict[str, float] = field(default_factory=dict)

    @property
    def avg_latency(self) -> float:
        return float(self.latencies.mean())

    @property
    def max_latency(self) -> float:
        return float(self.latencies.max())

    @property
    def compression_ratio(self) -> float:
        """Input size over output size (larger = better compression)."""
        if self.compressed_bits == 0:
            return float("inf")
        return 8.0 * self.input_bytes / self.compressed_bits


class HuffmanPipeline(SpeculativeStream):
    """Drives one Huffman encoding run over a runtime."""

    def __init__(self, runtime: Runtime, config: HuffmanConfig, n_blocks: int,
                 store: BlockStore | None = None) -> None:
        #: optional shared-memory transport: blocks and trees go into the
        #: store once and shipped tasks carry refs (see repro/sre/shm.py).
        self.store = store
        self.n_groups = math.ceil(n_blocks / config.reduce_ratio)

        root = runtime.root.subgroup("huffman")
        self.st_first = root.subgroup("first_pass")
        self.st_second = root.subgroup("second_pass")
        self.st_spec = root.subgroup("speculation")

        self.block_hists: dict[int, np.ndarray] = {}
        #: base references, one per input block (released when the block's
        #: encoding commits). Histograms never enter the store: the reduce
        #: and offset tasks that read them run on the coordinator.
        self.block_refs: dict[int, BlockRef] = {}
        #: every ref this run ever put (blocks, trees) — the
        #: population :meth:`release_store_refs` drains on a caller-owned
        #: store, where ``BlockStore.close``'s leftover sweep never runs.
        self._all_refs: list[BlockRef] = []
        self._reduce_tasks: dict[int, Task] = {}
        self._reduce_group_have: dict[int, int] = defaultdict(int)
        #: blocks arrived per count region, keyed by its first block.
        self._count_region_have: dict[int, int] = defaultdict(int)

        super().__init__(
            runtime, "huffman", config, n_blocks,
            predictor=self._make_tree_task, validator=compression_size_error,
            make_pass=lambda tree, version: _SecondPass(
                self, tree, version).on_block_hist,
            on_commit=self._block_committed)

        # Reduce completions reach us through the SuperTask spec-base
        # notification chain — the paper's flagged-task mechanism (§III-B).
        self.st_first.on_speculation_base(self._on_spec_base)

        # Per-block latency histograms on the run's registry: committed
        # latency (arrival → authoritative store) is the paper's headline
        # metric; observing it at the commit sink keeps the numbers
        # executor-agnostic (µs on whatever clock the run uses).
        self._m_block_latency = runtime.metrics.histogram(
            "block_latency_us",
            "per-block latency µs: arrival → authoritative (committed) store")
        self._m_blocks_committed = runtime.metrics.counter(
            "blocks_committed", "blocks whose encoding became authoritative")

    # ------------------------------------------------------------------
    # input
    # ------------------------------------------------------------------
    def feed_block(self, index: int, data: bytes | np.ndarray) -> None:
        """A data block arrived (called by the I/O model at arrival time).

        The pipeline keeps, and its regions ship, the ``bytes`` object the
        source fed: no copy per task, and one pickle frame per block.
        """
        if not isinstance(data, bytes):
            data = np.asarray(data, dtype=np.uint8).tobytes()
        self.arrive(index, data)
        if self.store is not None:
            # The block enters shared memory exactly once, here; every task
            # that touches it from now on carries the ref, not the bytes.
            ref = self.store.put(np.frombuffer(data, dtype=np.uint8))
            if ref is not None:
                self.block_refs[index] = ref
                self._all_refs.append(ref)
        start, end = self._count_region(index)
        self._count_region_have[start] += 1
        if self._count_region_have[start] == end - start:
            self._make_count(start, end)

    def _count_region(self, index: int) -> tuple[int, int]:
        """The count region holding ``index``: K-block runs inside its
        reduce group, so a region never crosses a reduce boundary."""
        ratio, k = self.config.reduce_ratio, self.config.region_blocks
        group_start = index - index % ratio
        start = group_start + (index - group_start) // k * k
        return start, min(start + k, group_start + ratio, self.n_blocks)

    def _make_count(self, start: int, end: int) -> None:
        task = make_count_region(start,
                                 [self.blocks[i] for i in range(start, end)],
                                 refs=self._block_bindings(start, end))
        task.on_complete.append(self._count_done)
        self.runtime.add_task(task, self.st_first)

    def _make_tree_task(self, hist: np.ndarray, name: str) -> Task:
        return make_tree_task(hist, name, self.config.max_code_length)

    # ------------------------------------------------------------------
    # first pass
    # ------------------------------------------------------------------
    def _count_done(self, task: Task, outs: dict[str, Any]) -> None:
        start, _end = task.tags["blocks"]
        for index, hist in enumerate(outs["hists"], start):
            self._block_counted(index, hist)

    def _block_counted(self, index: int, hist: np.ndarray) -> None:
        self.block_hists[index] = hist
        # Step size 0: speculate on the very first partial value available —
        # the first block's count histogram, before any reduce completes.
        if (
            self.manager is not None
            and self.config.step == 0
            and index == 0
            and not self.manager.versions
        ):
            self.manager.offer_update(0, hist)
        self.block_ready(index)
        group = index // self.config.reduce_ratio
        self._reduce_group_have[group] += 1
        if self._reduce_group_have[group] == self._reduce_group_len(group):
            self._make_reduce(group)

    def _reduce_group_len(self, group: int) -> int:
        start = group * self.config.reduce_ratio
        end = min(start + self.config.reduce_ratio, self.n_blocks)
        return end - start

    def _make_reduce(self, group: int) -> None:
        start = group * self.config.reduce_ratio
        end = start + self._reduce_group_len(group)
        task = make_reduce_task(
            group, [self.block_hists[i] for i in range(start, end)])
        self._reduce_tasks[group] = task
        self.runtime.add_task(task, self.st_first)
        if group == 0:
            self.runtime.deliver_external(task, "prev", zero_histogram())
        elif group - 1 in self._reduce_tasks:
            self.runtime.connect(self._reduce_tasks[group - 1], "out", task, "prev")
        if group + 1 in self._reduce_tasks:
            self.runtime.connect(task, "out", self._reduce_tasks[group + 1], "prev")

    def _on_spec_base(self, task: Task, outs: dict[str, Any]) -> None:
        group = task.tags.get("reduce_index")
        if group is None:
            return
        prefix_hist = outs["out"]
        is_final = group == self.n_groups - 1
        if self.manager is not None:
            self.manager.offer_update(group + 1, prefix_hist, is_final=is_final)
        elif is_final:
            # Without speculation the true tree is a task of its own
            # before the pass (the manager builds it as its final value).
            self._start_natural_tree(prefix_hist)

    # ------------------------------------------------------------------
    # second pass (natural and speculative)
    # ------------------------------------------------------------------
    def _start_natural_tree(self, hist: np.ndarray) -> None:
        task = self._make_tree_task(hist, "tree:natural")
        task.on_complete.append(lambda _t, outs: self.launch_natural(outs["out"]))
        self.runtime.add_task(task, self.st_second)

    def _encode_done(self, version: SpecVersion | None, outs: dict[str, Any]) -> None:
        for block, offset, payload, nbits in outs["pieces"]:
            self.deliver(version, block, (offset, payload, nbits))

    def _block_bindings(self, start: int, end: int) -> list | None:
        """Per-block payload bindings (ref where stored, bytes where not)."""
        if self.store is None:
            return None
        return [self.block_refs.get(i, self.blocks[i]) for i in range(start, end)]

    def _block_committed(self, block: int, now: float) -> None:
        """A block's encoding became authoritative (the Store node)."""
        if self.store is not None and block in self.block_refs:
            # The block's bytes are no longer needed by any future task:
            # drop the base reference (local views stay valid after the
            # segment unlinks — only the name goes away).
            self.store.release(self.block_refs.pop(block), reason="commit")
        self._m_blocks_committed.inc()
        self._m_block_latency.observe(now - self.collector.arrival_time(block))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def committed_tree(self) -> HuffmanTree:
        """The tree the authoritative output was encoded with."""
        return self.committed_value

    def result(self, completion_time: float | None = None) -> PipelineResult:
        """Collect the run's metrics (after the executor drained)."""
        if len(self.blocks) != self.n_blocks:
            raise ExperimentError(
                f"only {len(self.blocks)}/{self.n_blocks} blocks were fed"
            )
        valid = self.valid_versions()
        latencies = self.collector.latencies(valid)
        completions = self.collector.completions(valid)
        spec_stats: dict[str, float] = {}
        if self.manager is not None:
            spec_stats = self.manager.stats.as_dict()
        compressed_bits = sum(nbits for (_, _, nbits) in self.committed.values())
        end = completion_time if completion_time is not None else float(completions.max())
        return PipelineResult(
            n_blocks=self.n_blocks,
            outcome=self.outcome(),
            arrivals=self.collector.arrivals(),
            completions=completions,
            latencies=latencies,
            commit_latencies=self.collector.commit_latencies(),
            completion_time=end,
            compressed_bits=compressed_bits,
            input_bytes=sum(map(len, self.blocks.values())),
            wasted_encodes=self.collector.wasted_encodes(valid),
            spec_stats=spec_stats,
            runtime_stats=self.runtime.stats(),
        )

    def assemble(self) -> tuple[np.ndarray, int]:
        """Concatenate the authoritative encodes into one packed stream."""
        if len(self.committed) != self.n_blocks:
            raise ExperimentError(
                f"assembly has {len(self.committed)}/{self.n_blocks} blocks"
            )
        pieces = [self.committed[b] for b in sorted(self.committed)]
        total_bits = max(off + nbits for (off, _, nbits) in pieces)
        packed = assemble_stream(
            ((off, payload, nbits) for (off, payload, nbits) in pieces), total_bits
        )
        return packed, total_bits

    def verify_roundtrip(self, original: bytes) -> bool:
        """Decode the assembled stream and compare with the original input."""
        packed, total_bits = self.assemble()
        return decode_stream(packed, total_bits, self.committed_tree) == bytes(original)

    def release_store_refs(self) -> None:
        """Release every shared-memory reference this run still holds.

        The one-shot path sweeps leftovers in ``BlockStore.close``; a run
        on a *caller-owned* store (the serve daemon's warm arenas) must
        drain its own refs instead, so the arenas go back to the pool
        empty. Call only at quiescence — once the executor has drained,
        every remaining count on this run's refs belongs to this run
        (including version-held acquires on the same blocks).
        """
        if self.store is None:
            return
        for ref in self._all_refs:
            count = self.store.refcount(ref)
            if count:
                self.store.release(ref, reason="drain", n=count)
        self._all_refs.clear()
        self.block_refs.clear()


class _SecondPass:
    """One second pass (offset chain + encodes) for one tree.

    ``version=None`` is the natural/authoritative pass; otherwise all
    tasks are speculative, registered with the version (rollback footprint)
    and their results pause at the wait buffer. The stream feeds it each
    counted block once (:meth:`on_block_hist`).
    """

    def __init__(
        self,
        pipeline: HuffmanPipeline,
        tree: HuffmanTree,
        version: SpecVersion | None,
    ) -> None:
        self.pipeline = pipeline
        self.tree = tree
        self.version = version
        self.label = pass_label(version)
        # One shared-memory copy of the tree per second pass: 64 encodes
        # reference it by handle; each address space unpickles it once.
        self.tree_ref = None
        if pipeline.store is not None:
            self.tree_ref = pipeline.store.put(tree)
            if self.tree_ref is not None:
                pipeline._all_refs.append(self.tree_ref)
            if self.tree_ref is not None and version is not None:
                # The version owns its tree copy: the ref is dropped with
                # the version's fate (commit or rollback), so a dead
                # speculation never pins the segment.
                version.add_resource(pipeline.store.release_callback(self.tree_ref))
        self.fanout = pipeline.config.offset_fanout
        self._group_have: dict[int, int] = defaultdict(int)
        self._offset_tasks: dict[int, Task] = {}

    @property
    def dead(self) -> bool:
        return self.version is not None and not self.version.active

    def _group_span(self, group: int) -> tuple[int, int]:
        start = group * self.fanout
        return start, min(start + self.fanout, self.pipeline.n_blocks)

    def on_block_hist(self, index: int) -> None:
        """A block's count finished; build its group's offset when complete."""
        group = index // self.fanout
        self._group_have[group] += 1
        start, end = self._group_span(group)
        if self._group_have[group] == end - start:
            self._make_offset(group)

    def _make_offset(self, group: int) -> None:
        start, end = self._group_span(group)
        pipeline = self.pipeline
        hists = [pipeline.block_hists[i] for i in range(start, end)]
        task = make_offset_task(
            f"offset:{self.label}:g{group}",
            hists,
            self.tree,
            speculative=self.version is not None,
        )
        if self.version is not None:
            self.version.register(task)
        task.on_complete.append(lambda _t, outs, g=group: self._offset_done(g, outs))
        self._offset_tasks[group] = task
        st = pipeline.st_spec if self.version is not None else pipeline.st_second
        pipeline.runtime.add_task(task, st)
        if group == 0:
            pipeline.runtime.deliver_external(task, "prev", 0)
        elif group - 1 in self._offset_tasks:
            pipeline.runtime.connect(self._offset_tasks[group - 1], "cum", task, "prev")
        if group + 1 in self._offset_tasks:
            pipeline.runtime.connect(task, "cum", self._offset_tasks[group + 1], "prev")

    def _offset_done(self, group: int, outs: dict[str, Any]) -> None:
        if self.dead:
            return
        offsets = outs["offsets"]
        start, end = self._group_span(group)
        pipeline = self.pipeline
        st = pipeline.st_spec if self.version is not None else pipeline.st_second
        store = pipeline.store
        if self.version is not None and store is not None:
            # One extra ref per stored block for this version, released
            # through SpecVersion.release_resources on commit or rollback:
            # the refcount trace proves a mis-speculation pins nothing.
            for i in range(start, end):
                ref = pipeline.block_refs.get(i)
                if ref is not None:
                    store.acquire(ref)
                    self.version.add_resource(store.release_callback(ref))
        k = pipeline.config.region_blocks
        for first in range(start, end, k):
            last = min(first + k, end)
            task = make_encode_region(
                f"encode:{self.label}",
                first,
                [pipeline.blocks[i] for i in range(first, last)],
                self.tree,
                offsets[first - start:last - start],
                speculative=self.version is not None,
                refs=pipeline._block_bindings(first, last),
                tree_ref=self.tree_ref,
            )
            if self.version is not None:
                self.version.register(task)
            task.on_complete.append(
                lambda _t, e_outs, v=self.version: pipeline._encode_done(v, e_outs)
            )
            pipeline.runtime.add_task(task, st)
