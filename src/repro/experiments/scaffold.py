"""One run scaffold: the run lifecycle every registered app shares.

:func:`run_app` is the streaming engine with the application plugged in:
config checks, rng, platform and arrival model, metrics registry, flight
recorder, trace context, runtime, executor drive (simulated ``schedule_at``
feeding or the live start / submit / drain / shutdown sequence),
verification, anomaly scan, ``run_result`` digest, cleanup and the
:class:`~repro.experiments.jobs.RunReport`. An application supplies only
an :class:`App` subclass — one instance per run, so hooks may keep
per-run state on ``self`` — and registers it with :func:`register_app`.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace
from typing import Any, Callable, ClassVar, Iterable

from repro.errors import ExperimentError
from repro.experiments.config import RunConfig
from repro.experiments.jobs import AppResult, JobResources, RunReport, register_job
from repro.iomodels import ArrivalModel, DiskModel, SocketModel
from repro.obs.anomaly import scan_run
from repro.obs.events import EventLog
from repro.obs.exporters import PeriodicSnapshotWriter
from repro.obs.metrics import MetricsRegistry
from repro.platforms import get_platform
from repro.sim.rng import make_rng
from repro.sre.registry import make_executor
from repro.sre.runtime import Runtime

__all__ = ["App", "IO_MODELS", "register_app", "run_app"]


class App:
    """One application's hooks into :func:`run_app`. ``pipeline`` is what
    :meth:`build` returned: it offers ``feed_block(index, block)`` and
    ``config`` (the report's ``config``)."""

    #: the registered job name; stamped into the event-log header.
    name: ClassVar[str] = ""
    #: what :meth:`verify` checks, named in the error when it fails.
    check: ClassVar[str] = "output"
    #: per-block cost of the synthetic ``io="disk"`` arrival model in µs
    #: (None: :class:`~repro.iomodels.DiskModel`'s own default).
    disk_per_block_us: ClassVar[float | None] = None
    #: True when the task bodies run on wall-clock executors (threads,
    #: procs, dist) and accept ``io="live"``; False means sim only.
    live: ClassVar[bool] = False

    def __init__(self, cfg: RunConfig, resources: JobResources | None) -> None:
        self.cfg = cfg
        self.resources = resources
        #: first segment of the default run label.
        self.workload = self.name

    def speculation(self) -> dict[str, Any]:
        """The speculation knobs every app's pipeline config takes."""
        cfg = self.cfg
        return dict(speculative=cfg.speculative, step=cfg.step,
                    verification=cfg.verification, verify_k=cfg.verify_k,
                    tolerance=cfg.tolerance)

    def inputs(self, rng) -> tuple[int, Iterable[Any]]:
        """``(n_blocks, blocks)``: the input stream in feed order."""
        raise NotImplementedError

    def open(self, runtime: Runtime) -> dict[str, Any]:
        """Acquire per-run resources; return extra live-executor options."""
        return {}

    def build(self, runtime: Runtime, n_blocks: int) -> Any:
        """Construct the pipeline on ``runtime``."""
        raise NotImplementedError

    def verify(self, pipeline: Any) -> bool:
        """Check the committed output against a sequential reference."""
        raise NotImplementedError

    def digest(self, pipeline: Any) -> tuple[bytes, dict[str, Any]]:
        """The committed output bytes (hashed into ``output_sha256``) and
        any extra ``run_result`` event fields."""
        raise NotImplementedError

    def result(self, pipeline: Any, end: float) -> Any:
        """The report's ``result``; the default suits any
        :class:`~repro.core.stream.SpeculativeStream` app."""
        return AppResult(
            outcome=pipeline.outcome(),
            latencies=pipeline.collector.latencies(pipeline.valid_versions()),
            arrivals=pipeline.collector.arrivals(),
            completion_time=float(end),
        )

    def extras(self, pipeline: Any, ok: bool | None) -> dict[str, Any]:
        """App-specific report scalars (``report.extras``)."""
        stats = pipeline.manager.stats if pipeline.manager else None
        return {"rollbacks": stats.rollbacks if stats else 0,
                "speculations": stats.speculations if stats else 0}

    def summary(self, label: str, result: Any) -> Any:
        return None

    def close(self, pipeline: Any | None) -> None:
        """Release what :meth:`open` acquired; runs on every exit path."""


#: The synthetic arrival models ``RunConfig.io`` may name, which
#: :func:`_arrival_model` resolves. ``"live"`` is not among them: it feeds
#: a served job's real blocks (``resources.block_source``) instead.
IO_MODELS = ("disk", "socket")


def _arrival_model(io: object, disk_per_block_us: float | None) -> ArrivalModel:
    if isinstance(io, ArrivalModel):
        return io
    name = str(io).lower()
    if name == "disk":
        return (DiskModel() if disk_per_block_us is None
                else DiskModel(per_block_us=disk_per_block_us))
    if name == "socket":
        return SocketModel()
    raise ExperimentError(
        f"unknown io model {io!r}; choose one of "
        f"{', '.join(map(repr, IO_MODELS))} or 'live'")


def run_app(
    app: type[App],
    config: RunConfig,
    *,
    metrics: MetricsRegistry | None = None,
    decisions: object | None = None,
    resources: JobResources | None = None,
) -> RunReport:
    """Run one job of ``app`` as ``config`` describes.

    ``metrics`` is a registry to record into (pass a shared one to
    aggregate runs); ``decisions`` a
    :class:`~repro.core.decisions.DecisionSource` (the seam `repro replay`
    forces a recorded schedule through); ``resources`` the caller's
    :class:`~repro.experiments.jobs.JobResources`.
    """
    if not isinstance(config, RunConfig):
        raise ExperimentError(
            f"config must be a RunConfig, got {type(config).__name__} — "
            "bare keywords are no longer accepted; build one with "
            "RunConfig(...) or RunConfig.from_kwargs(**kw)")
    cfg = config
    if cfg.app != app.name:
        raise ExperimentError(
            f"the {app.name} runner got config.app={cfg.app!r}; dispatch "
            "other apps through repro.experiments.jobs.run_job")
    if cfg.policy == "nonspec":
        # Shorthand used throughout the figures: the paper's baseline run.
        cfg = replace(cfg, speculative=False, policy="conservative")
    live_feed = isinstance(cfg.io, str) and cfg.io == "live"
    if not app.live and (cfg.executor != "sim" or live_feed):
        raise ExperimentError(
            f"the {app.name} job runs on the simulated executor only (its "
            "task closures are not picklable); use executor='sim' with a "
            "disk or socket io model")
    if live_feed and cfg.executor == "sim":
        raise ExperimentError(
            "io='live' feeds wall-clock arrivals; it requires a live "
            "executor (threads/procs), not 'sim'")

    run = app(cfg, resources)
    rng = make_rng(cfg.seed)
    n_blocks, blocks = run.inputs(rng)
    plat = get_platform(cfg.platform) if isinstance(cfg.platform, str) else cfg.platform
    io_model = None if live_feed else _arrival_model(cfg.io, app.disk_per_block_us)

    registry = metrics if metrics is not None else MetricsRegistry()
    # The header meta makes the JSONL self-describing enough to replay:
    # the full run parameterisation rides along with the events.
    events = EventLog(capacity=cfg.events_capacity, path=cfg.events_out,
                      enabled=cfg.events,
                      meta={"app": app.name, "run_config": cfg.to_dict()})
    if resources is not None and resources.trace is not None:
        # Served job: every event of this run joins the submit's trace.
        events.set_trace_context(resources.trace)
    runtime = Runtime(metrics=registry, events=events, decisions=decisions)
    writer = None
    pipeline = None
    try:
        options = run.open(runtime)
        if cfg.metrics_out is not None:
            writer = PeriodicSnapshotWriter(
                registry, cfg.metrics_out, interval_s=cfg.metrics_interval_s,
                meta=cfg.to_dict(),
            ).start()
        if cfg.executor == "sim":
            engine = make_executor("sim", runtime, platform=plat,
                                   policy=cfg.policy, workers=cfg.workers)
            pipeline = run.build(runtime, n_blocks)
            arrivals = io_model.arrival_times(n_blocks, rng)
            for index, (when, block) in enumerate(zip(arrivals, blocks)):
                engine.sim.schedule_at(
                    float(when),
                    lambda i=index, b=block: pipeline.feed_block(i, b),
                )
            end = engine.run()
        else:
            if resources is not None and resources.executor_factory is not None:
                # Warm path: the caller (serve daemon) builds the executor
                # around an already-started worker pool.
                engine = resources.executor_factory(runtime)
            else:
                engine = make_executor(
                    cfg.executor, runtime, policy=cfg.policy,
                    workers=cfg.workers if cfg.workers is not None else 4,
                    **options,
                )
            pipeline = run.build(runtime, n_blocks)
            gap = 0.0 if live_feed else cfg.feed_gap_s
            engine.start()
            try:
                for index, block in enumerate(blocks):
                    engine.submit(pipeline.feed_block, index, block)
                    if gap:
                        time.sleep(gap)
                engine.close_input()
                if not engine.wait_idle(timeout=600.0):
                    raise ExperimentError("live executor did not drain within 600s")
            finally:
                # Every exit path — a misbehaving live source included —
                # joins the coordinator threads and stops (or, for a warm
                # pool, harvests) the workers.
                engine.shutdown()
            engine.raise_errors()
            end = engine.now
        result = run.result(pipeline, end)
        ok: bool | None = None
        if cfg.verify_roundtrip:
            ok = run.verify(pipeline)
            if not ok:
                raise ExperimentError(
                    f"{app.name} {app.check} check failed: the committed "
                    "output does not match the sequential reference")
        # Post-run anomaly scan: detectors emit anomaly_* events (before
        # the JSONL sink closes) and produce the report's warnings.
        run_warnings = scan_run(events, registry)
        # Terminal run_result event: outcome + output digest, the oracle
        # replay compares against for byte-identity.
        output_sha: str | None = None
        if cfg.events:
            payload, fields = run.digest(pipeline)
            output_sha = hashlib.sha256(payload).hexdigest()
            events.emit("run_result", outcome=result.outcome, **fields,
                        output_sha256=output_sha, roundtrip_ok=ok)
    finally:
        # Each cleanup in its own finally clause: a raising store close
        # must not eat the final metrics snapshot or the event sink flush.
        try:
            run.close(pipeline)
        finally:
            try:
                if writer is not None:
                    writer.stop()  # final snapshot: the drained end state
            finally:
                events.close()

    label = cfg.label or (
        f"{run.workload}/{plat.name}/{cfg.policy}"
        + ("" if cfg.executor == "sim" else f"/{cfg.executor}")
        + ("" if cfg.transport == "pickle" else f"/{cfg.transport}")
        + ("" if cfg.speculative else "/nonspec")
    )
    if cfg.executor == "sim":
        n_workers = cfg.workers if cfg.workers is not None else plat.default_workers
    else:
        n_workers = engine.n_workers
    return RunReport(
        label=label, result=result, summary=run.summary(label, result),
        utilisation=engine.utilisation(), roundtrip_ok=ok,
        config=pipeline.config, platform_name=plat.name, policy=cfg.policy,
        workers=n_workers, app=app.name,
        metrics=registry, run_config=cfg, events=events if cfg.events else None,
        warnings=run_warnings, output_sha256=output_sha,
        extras=run.extras(pipeline, ok),
    )


def register_app(app: type[App]) -> Callable[..., RunReport]:
    """Register ``app`` as a job kind; return its one-call runner
    ``fn(config, *, metrics=None, decisions=None, resources=None)``."""
    def runner(config: RunConfig, *, metrics: MetricsRegistry | None = None,
               decisions: object | None = None,
               resources: JobResources | None = None) -> RunReport:
        return run_app(app, config, metrics=metrics, decisions=decisions,
                       resources=resources)

    runner.__doc__ = f"Run one {app.name} job through :func:`run_app`."
    register_job(app.name, runner)
    return runner
