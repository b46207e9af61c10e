"""The huffman application: workload → pipeline → run → report.

:func:`run_huffman` is the huffman entry point the examples, figure
modules and benchmark harness call, registered as the ``"huffman"`` job
kind. The run lifecycle is the shared scaffold
:func:`repro.experiments.scaffold.run_app`; :class:`HuffmanApp` supplies
the huffman hooks. The only calling convention is a frozen
:class:`~repro.experiments.config.RunConfig`::

    report = run_huffman(config=RunConfig(workload="txt", n_blocks=64,
                                          executor="procs", transport="shm"))

Huffman is the bundled app that runs on the wall-clock executors
(threads / procs / dist), with the shm transport and the process-pool
supervisor knobs. Besides the synthetic ``disk``/``socket`` arrival
models, ``io="live"`` feeds real blocks as they arrive: the runner pulls
from ``resources.block_source`` (e.g. the serve daemon's socket drain)
and timestamps each arrival with a
:class:`~repro.iomodels.socket.LiveArrivals` recorder — the paper's §V-A
tunnelled-socket scenario measured for real instead of simulated.
"""

from __future__ import annotations

from repro.errors import ExperimentError
from repro.experiments.config import RunConfig
from repro.experiments.jobs import RunReport
from repro.experiments.scaffold import App, register_app
from repro.huffman.pipeline import HuffmanConfig, HuffmanPipeline, region_blocks
from repro.iomodels.socket import LiveArrivals
from repro.experiments.summary import summarize_run
from repro.sre.shm import BlockStore
from repro.workloads import get_workload

__all__ = ["HuffmanApp", "RunConfig", "RunReport", "run_huffman", "split_blocks"]


def split_blocks(data: bytes, block_size: int) -> list[bytes]:
    """Break input data into 4 KB-style blocks (last may be partial)."""
    if block_size < 1:
        raise ExperimentError("block_size must be >= 1")
    if not data:
        raise ExperimentError("empty input data")
    return [data[i : i + block_size] for i in range(0, len(data), block_size)]


#: RunConfig fields forwarded to the process-pool back-ends (procs, dist).
_SUPERVISOR_KNOBS = ("fault_plan", "dispatch_timeout_s")


class HuffmanApp(App):
    """Huffman hooks: workload or live input, shm store, executor knobs."""

    name = "huffman"
    check = "round-trip"
    live = True
    #: the input bytes the round-trip check compares against.
    data: bytes | None = None
    #: the live-arrival recorder (io="live" only).
    arrivals: LiveArrivals | None = None
    store: BlockStore | None = None
    owns_store = True

    def inputs(self, rng):
        cfg, res = self.cfg, self.resources
        if isinstance(cfg.io, str) and cfg.io == "live":
            # Blocks arrive from the caller's source (serve socket drain);
            # nothing to synthesise. n_blocks sizes the pipeline up-front.
            if res is None or res.block_source is None:
                raise ExperimentError(
                    "io='live' requires resources.block_source (an iterable "
                    "of block bytes, e.g. the serve daemon's stream drain)")
            if cfg.n_blocks is None:
                raise ExperimentError("n_blocks is required with io='live'")
            self.workload = "live"
            self.arrivals = res.arrivals if res.arrivals is not None else LiveArrivals()
            return cfg.n_blocks, self._live_blocks(res.block_source, cfg.n_blocks)
        if isinstance(cfg.workload, str):
            if cfg.n_blocks is None:
                raise ExperimentError("n_blocks is required with a named workload")
            self.data = get_workload(cfg.workload).generate(
                cfg.n_blocks * cfg.block_size, rng)
            self.workload = cfg.workload
        else:
            self.data = bytes(cfg.workload)
            self.workload = "custom"
        blocks = split_blocks(self.data, cfg.block_size)
        if cfg.n_blocks is not None and len(blocks) != cfg.n_blocks:
            raise ExperimentError(
                f"data yields {len(blocks)} blocks, expected {cfg.n_blocks}")
        return len(blocks), blocks

    def _live_blocks(self, source, n_blocks: int):
        received: list[bytes] = []
        for index, block in enumerate(source):
            if index >= n_blocks:
                raise ExperimentError(
                    f"live source produced more than the declared "
                    f"{n_blocks} blocks")
            block = bytes(block)
            self.arrivals.record(index)
            received.append(block)
            yield block
        if len(received) != n_blocks:
            raise ExperimentError(
                f"live source produced {len(received)} blocks, "
                f"declared {n_blocks}")
        self.data = b"".join(received)

    def open(self, runtime):
        cfg, res = self.cfg, self.resources
        if cfg.transport == "shm":
            # The shared-memory transport works under every back-end (local
            # resolution is a cache hit); it pays off on "procs", where block
            # bytes stop crossing the coordinator→worker pipes.
            if res is not None and res.store is not None:
                self.store, self.owns_store = res.store, False  # daemon arenas
            else:
                self.store = BlockStore(metrics=runtime.metrics,
                                        events=runtime.events)
        if cfg.executor not in ("procs", "dist"):
            # Supervisor / fault-injection knobs are specific to the
            # process-pool back-ends; other back-ends reject the keywords.
            return {}
        options = {k: getattr(cfg, k) for k in _SUPERVISOR_KNOBS}
        if cfg.executor == "dist":
            options.update(pool=cfg.pool)
        return dict(options, store=self.store)

    def build(self, runtime, n_blocks):
        cfg = self.cfg
        hconfig = HuffmanConfig(
            block_size=cfg.block_size, reduce_ratio=cfg.reduce_ratio,
            offset_fanout=cfg.offset_fanout,
            region_blocks=region_blocks(cfg.executor, cfg.block_size),
            **self.speculation())
        return HuffmanPipeline(runtime, hconfig, n_blocks, store=self.store)

    def verify(self, pipeline):
        return pipeline.verify_roundtrip(self.data)

    def digest(self, pipeline):
        packed, total_bits = pipeline.assemble()
        return packed.tobytes(), {"compressed_bits": int(total_bits)}

    def result(self, pipeline, end):
        return pipeline.result(end)

    def extras(self, pipeline, ok):
        if self.arrivals is None:
            return {}
        return {"live_arrivals_us": self.arrivals.times_us()}

    def summary(self, label, result):
        return summarize_run(label, result)

    def close(self, pipeline):
        if self.store is None:
            return
        if self.owns_store:
            self.store.close()  # releases leftover refs, unlinks segments
        elif pipeline is not None:
            # Caller-owned warm arenas: the close sweep never runs, so
            # this run drains its own leftover refs instead.
            pipeline.release_store_refs()


run_huffman = register_app(HuffmanApp)
