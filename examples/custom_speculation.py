#!/usr/bin/env python
"""Building a custom speculation domain on the framework API.

Shows the paper's four-point programmer interface (§II-A) end to end on a
deliberately tiny problem — estimating a dataset's mean from a prefix and
speculatively normalising data blocks with it:

1. *what* to speculate — the dataset mean;
2. *how* — a predictor task carrying the running mean of the blocks seen
   so far;
3. *where (not)* — normalised blocks pause in the stream's wait buffer
   until validated;
4. *how to validate* — relative distance between predicted and refined
   means, under a 2 % tolerance.

The app supplies only its own parts — the update chain (one ``sum`` task
per block), the predictor, the validator and the per-block pass; the
:class:`~repro.core.stream.SpeculativeStream` does the versions, the
barrier, commit and rollback. No Huffman, no filter app.

Usage::

    python examples/custom_speculation.py
"""

import numpy as np

from repro.core.stream import SpeculationConfig, SpeculativeStream, pass_label
from repro.platforms import X86Platform
from repro.sre import Runtime, SimulatedExecutor, Task

N_BLOCKS = 64
BLOCK_LEN = 1000


def main() -> None:
    rng = np.random.default_rng(0)
    # A decaying mean drift early on makes the first guess slightly off.
    blocks = [
        rng.normal(loc=10.0 + 3.0 * np.exp(-i / 4.0), scale=2.0, size=BLOCK_LEN)
        for i in range(N_BLOCKS)
    ]

    runtime = Runtime()
    executor = SimulatedExecutor(runtime, X86Platform(workers=8),
                                 policy="balanced", workers=8)

    def normalise_pass(mean, version):
        """(1) what runs under a mean: one normalisation task per block."""
        def on_block(i: int) -> None:
            task = Task(
                f"normalise:{pass_label(version)}:{i}",
                lambda b=blocks[i], m=mean: {"out": b - m},
                kind="filter",
                speculative=version is not None,
                cost_hint={"units": float(BLOCK_LEN)},
            )
            if version is not None:
                version.register(task)
            task.on_complete.append(
                lambda _t, outs, i=i: stream.deliver(version, i, outs["out"]))
            runtime.add_task(task)
        return on_block

    stream = SpeculativeStream(
        runtime, "mean",
        # (2) speculate every 4th update, verify every 8th, (4) 2 % tolerance.
        SpeculationConfig(step=4, verify_k=8, tolerance=0.02), N_BLOCKS,
        # (2) how to speculate: the running mean of the prefix.
        predictor=lambda prefix_mean, name: Task(
            name, lambda m=prefix_mean: {"out": m}, kind="predict"),
        # (4) how to validate: relative mean distance.
        validator=lambda pred, cand, _ref: abs(pred - cand) / max(abs(cand), 1e-12),
        make_pass=normalise_pass,
    )

    running = {"sum": 0.0, "count": 0}

    # Feed blocks; every sum completion makes the block ready for the
    # passes and refines the running mean, offered as the next update.
    for i, block in enumerate(blocks):
        def on_done(_task, outs, i=i):
            running["sum"] += outs["out"]
            running["count"] += BLOCK_LEN
            stream.block_ready(i)
            stream.offer(i + 1, running["sum"] / running["count"],
                         is_final=(i == N_BLOCKS - 1))

        def arrive(i=i, block=block, on_done=on_done):
            stream.arrive(i, block)
            t = Task(f"sum:{i}", lambda b=block: {"out": float(b.sum())},
                     kind="count", cost_hint={"bytes": float(BLOCK_LEN)})
            t.on_complete.append(on_done)
            runtime.add_task(t)
        executor.sim.schedule_at(i * 10.0, arrive)

    executor.run()

    stats = stream.manager.stats
    print(f"outcome      : {stream.outcome()}")
    print(f"speculations : {stats.speculations}")
    print(f"checks       : {stats.checks} (failed {stats.checks_failed})")
    print(f"rollbacks    : {stats.rollbacks}")
    normalised = stream.committed
    assert len(normalised) == N_BLOCKS, "every block must be normalised"
    residual = np.concatenate([normalised[i] for i in range(N_BLOCKS)]).mean()
    print(f"residual mean after normalisation: {residual:+.4f} "
          f"(0 would be exact; the tolerance allows a small bias)")
    assert abs(residual) < 0.25, "tolerance bound exceeded"
    print("done — the speculative normalisation is within tolerance.")


if __name__ == "__main__":
    main()
