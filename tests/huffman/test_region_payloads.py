"""Region geometry and flat region payloads.

``region_blocks`` fixes K from the executor name and the block size; the
pipeline then caps a count region at its reduce group and an encode
region at its offset group. The table below pins the task population
that rule gives at the benchmark's geometries. The second half checks
that what a region ships — its payload and its reply — is flat: block
bytes, one histogram array, ``bytes`` pieces, never one array per block.
"""

import pickle
from collections import defaultdict
from functools import partial

import numpy as np
import pytest

from repro.huffman.pipeline import HuffmanConfig, HuffmanPipeline, region_blocks
from repro.platforms import X86Platform
from repro.sre.executor_sim import SimulatedExecutor
from repro.sre.runtime import Runtime
from repro.sre.task import Task


def _region_tasks(executor: str, block_size: int, reduce_ratio: int,
                  offset_fanout: int, n_blocks: int) -> dict[str, list[Task]]:
    """Every count / encode task a non-speculative run creates, by kind,
    with K as ``region_blocks`` gives it for ``executor``."""
    rt = Runtime()
    ex = SimulatedExecutor(rt, X86Platform(workers=2), workers=2)
    config = HuffmanConfig(
        block_size=block_size, reduce_ratio=reduce_ratio,
        offset_fanout=offset_fanout, speculative=False,
        region_blocks=region_blocks(executor, block_size))
    pipe = HuffmanPipeline(rt, config, n_blocks)
    tasks: dict[str, list[Task]] = defaultdict(list)
    add_task = rt.add_task

    def record(task, *args, **kwargs):
        if task.kind in ("count", "encode"):
            tasks[task.kind].append(task)
        return add_task(task, *args, **kwargs)

    rt.add_task = record
    rng = np.random.default_rng(n_blocks)
    for i in range(n_blocks):
        block = rng.integers(0, 64, block_size, dtype=np.uint8).tobytes()
        ex.sim.schedule_at(float(i), partial(pipe.feed_block, i, block))
    ex.run()
    assert len(pipe.committed) == n_blocks
    return tasks


def _spans(tasks: list[Task]) -> set[int]:
    return {task.tags["blocks"][1] - task.tags["blocks"][0] for task in tasks}


@pytest.mark.parametrize(
    "executor, block_size, reduce_ratio, offset_fanout, n_blocks, count, encode",
    [
        # batch-pdf-dist's geometry: K = 32 at 4 KB blocks
        ("dist", 4096, 16, 64, 64, 16, 32),
        ("procs", 4096, 16, 64, 64, 16, 32),
        # stream-txt's socket geometry: both groups cap K at 8
        ("procs", 4096, 8, 8, 32, 8, 8),
        ("threads", 4096, 8, 8, 32, 8, 8),
        # one 128 KB block fills a region on its own
        ("procs", 128 * 1024, 16, 64, 4, 1, 1),
        # the simulated figures keep one task per block
        ("sim", 4096, 16, 64, 64, 1, 1),
    ])
def test_region_spans_follow_the_pipeline_groups(
        executor, block_size, reduce_ratio, offset_fanout, n_blocks,
        count, encode):
    tasks = _region_tasks(executor, block_size, reduce_ratio, offset_fanout,
                          n_blocks)
    assert _spans(tasks["count"]) == {count}
    assert _spans(tasks["encode"]) == {encode}
    assert len(tasks["count"]) == n_blocks // count
    assert len(tasks["encode"]) == n_blocks // encode


def _arrays(obj) -> list[np.ndarray]:
    """The ndarrays in a payload or reply, through containers and
    partials; other objects (the Huffman tree) are opaque."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif isinstance(obj, partial):
        obj = [*obj.args, *obj.keywords.values()]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _arrays(item)]
    return []


def test_shipped_regions_and_replies_hold_no_per_block_array():
    k = region_blocks("procs", 4096)
    tasks = _region_tasks("procs", 4096, 16, 64, 64)
    for task in tasks["count"] + tasks["encode"]:
        blob = task.serialize_payload()
        fn, inputs = pickle.loads(blob)
        assert _arrays((fn, inputs)) == []
        blocks = fn.args[0]
        assert all(type(block) is bytes for block in blocks)
        reply = pickle.loads(pickle.dumps(Task.run_payload(blob)))
        if task.kind == "count":
            (hists,) = _arrays(reply)
            assert hists.shape == (min(k, 16), 256)
        else:
            assert _arrays(reply) == []
            assert all(type(payload) is bytes
                       for _block, _offset, payload, _nbits in reply["pieces"])
