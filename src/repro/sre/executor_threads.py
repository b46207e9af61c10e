"""Threaded executor — the SRE on real OS threads and wall-clock time.

One polling worker per thread, exactly as the paper's x86 back-end runs one
polling thread per CPU (§III-A). The runtime structure (graph, queues,
policies, speculation, rollback) is identical to the simulated executor;
only the clock and the dispatch loop differ.

Honesty note (see DESIGN.md §2): CPython's GIL serialises pure-Python task
bodies, so wall-clock speedups here understate what the paper measured on
real hardware. NumPy kernels release the GIL, so histogram/encode tasks see
some genuine overlap; for pure-Python kernels use
:class:`~repro.sre.executor_procs.ProcessExecutor`, which ships task bodies
to a process pool and escapes the GIL entirely. The threaded executor
exists to demonstrate that the runtime is a real runtime — the latency
*figures* are reproduced on the simulated executor.
"""

from __future__ import annotations

from repro.sre.executor_base import LiveExecutor

__all__ = ["ThreadedExecutor"]


class ThreadedExecutor(LiveExecutor):
    """Runs a :class:`~repro.sre.runtime.Runtime` on a thread pool.

    All lifecycle (start / deliver / close_input / wait_idle / shutdown,
    or the one-shot ``run()``) lives in :class:`LiveExecutor`; this class
    only says *where* a task body runs: inline on the dispatching worker
    thread, inside this process — the base dispatch cycle, unchanged.
    """


from repro.sre.registry import register_executor  # noqa: E402

register_executor("threads", ThreadedExecutor)
