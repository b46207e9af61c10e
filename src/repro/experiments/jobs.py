"""Unified Job API: one registry, one config object, one result shape.

Every application runs through one scaffold,
:func:`repro.experiments.scaffold.run_app`, which owns the run lifecycle
(registry, flight recorder, runtime, executor, verification, anomaly
scan, ``run_result`` digest, report); an app plugs in only its hooks —
an :class:`~repro.experiments.scaffold.App` subclass. This module is the
seam above it, mirroring :mod:`repro.sre.registry` (``EXECUTORS``):

* :data:`JOBS` maps an app name to its runner callable;
  :func:`~repro.experiments.scaffold.register_app` (or, for a hand-rolled
  runner, :func:`register_job`) adds one.
* :class:`~repro.experiments.config.RunConfig` is the single config
  object — its ``app`` field names the registered runner and
  ``RunConfig.for_app`` fills per-app conventional defaults.
* :class:`RunReport` is the single result shape. App-specific scalars
  (filter response error, kmeans inertia, ...) ride in ``extras``;
  ``output_sha256`` is the byte-identity oracle `repro replay` and the
  serve-vs-one-shot tests compare against.

App-generic callers — the `repro serve` daemon and `repro replay` —
dispatch through :func:`run_job`::

    from repro.experiments.jobs import run_job
    report = run_job(RunConfig.for_app("kmeans", n_blocks=24))

:class:`JobResources` carries *runtime resources* (as opposed to run
parameters): a warm executor factory, a caller-owned shm
:class:`~repro.sre.shm.BlockStore` the runner must not close, a live
block source for ``io="live"`` streaming arrivals, a trace context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.errors import ExperimentError
from repro.experiments.config import RunConfig
from repro.experiments.summary import RunSummary
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "JOBS",
    "AppResult",
    "JobResources",
    "RunReport",
    "job_names",
    "register_job",
    "run_job",
]

#: name -> runner callable with the unified signature
#: ``fn(config, *, metrics=None, decisions=None, resources=None) -> RunReport``.
JOBS: dict[str, Callable[..., "RunReport"]] = {}


def register_job(name: str, fn: Callable[..., "RunReport"]) -> None:
    """Register a job runner under ``name`` (last registration wins).

    Runner modules self-register at import time, exactly like executor
    back-ends do with :func:`repro.sre.registry.register_executor`.
    """
    if not name or not isinstance(name, str):
        raise ExperimentError("job name must be a non-empty string")
    JOBS[name] = fn


def job_names() -> tuple[str, ...]:
    """Registered job names, sorted (for CLI choices and error messages)."""
    _ensure_registered()
    return tuple(sorted(JOBS))


def _ensure_registered() -> None:
    # Import the bundled runner modules for their registration side
    # effect; application-registered jobs are already in JOBS.
    import repro.experiments.runner  # noqa: F401
    import repro.filterapp.runner  # noqa: F401
    import repro.kmeansapp.runner  # noqa: F401


def run_job(
    config: RunConfig,
    *,
    metrics: MetricsRegistry | None = None,
    decisions: object | None = None,
    resources: "JobResources | None" = None,
) -> "RunReport":
    """Run ``config.app`` through its registered runner.

    The single dispatch seam the serve daemon (and any other app-generic
    caller) uses: every job kind takes the same ``RunConfig`` and returns
    the same :class:`RunReport`, so flight-recorder logs and replay stay
    uniform across apps.
    """
    if not isinstance(config, RunConfig):
        raise ExperimentError(
            f"config must be a RunConfig, got {type(config).__name__}")
    _ensure_registered()
    try:
        fn = JOBS[config.app]
    except KeyError:
        raise ExperimentError(
            f"unknown app {config.app!r}; registered: "
            f"{', '.join(job_names())}") from None
    return fn(config, metrics=metrics, decisions=decisions,
              resources=resources)


@dataclass
class JobResources:
    """Runtime resources a caller threads into a run (not run parameters).

    Everything here is optional; a one-shot run passes nothing. The serve
    daemon uses every field:

    ``executor_factory``
        ``fn(runtime) -> LiveExecutor`` building the run's executor around
        an already-warm worker pool; when set, the runner calls it instead
        of :func:`repro.sre.registry.make_executor`.
    ``store``
        A caller-owned :class:`~repro.sre.shm.BlockStore`. The runner uses
        it for the shm transport but must **not** close it — the arenas
        outlive the job. Per-job blocks still reclaim at refcount zero.
    ``block_source``
        Iterable of block ``bytes`` for ``io="live"``: the runner pulls
        (blocking on real arrivals, e.g. a socket drain) instead of
        synthesising a workload.
    ``arrivals``
        A :class:`~repro.iomodels.socket.LiveArrivals` recorder to stamp
        live arrivals into; one is created when omitted. The recorded
        schedule lands in ``report.extras["live_arrivals_us"]``.
    ``trace``
        A :class:`~repro.obs.spans.TraceContext` (the serve daemon's
        execute-span context). The runner stamps it onto the job's event
        log, so every event of the run — and, through the dispatch batch
        headers, every worker-side ``worker_exec`` event — carries the
        submitting request's ``trace_id``.
    """

    executor_factory: Callable[..., Any] | None = None
    store: Any | None = None
    block_source: Any | None = None
    arrivals: Any | None = None
    trace: Any | None = None


@dataclass
class AppResult:
    """Minimal result shape for apps without a dedicated pipeline result.

    Mirrors the slice of ``HuffmanPipeline``'s ``PipelineResult`` that
    :class:`RunReport`'s convenience properties rely on, so filter/kmeans
    reports delegate identically.
    """

    outcome: str
    latencies: np.ndarray
    arrivals: np.ndarray
    completion_time: float

    @property
    def avg_latency(self) -> float:
        return float(self.latencies.mean()) if self.latencies.size else 0.0


@dataclass
class RunReport:
    """Everything one job run produces — the single result shape.

    ``result`` is the app's pipeline result (huffman's ``PipelineResult``
    or an :class:`AppResult`); either way it exposes ``outcome``,
    ``latencies``, ``arrivals``, ``avg_latency`` and ``completion_time``.
    App-specific scalars live in ``extras`` (filter: ``response_error``,
    ``output_ok``; kmeans: ``inertia``, ``labels_ok``; both: ``rollbacks``,
    ``speculations``; live runs: ``live_arrivals_us``).
    """

    label: str
    result: Any
    summary: RunSummary | None
    utilisation: float
    #: output verification verdict: huffman round-trip, filter re-filter
    #: check, kmeans label re-assignment check; None when skipped.
    roundtrip_ok: bool | None
    config: Any
    platform_name: str
    policy: str
    workers: int
    #: the registered job name that produced this report.
    app: str = "huffman"
    #: the run's MetricsRegistry (always populated): counters, gauges and
    #: histograms from every layer — export with repro.obs.exporters.
    metrics: MetricsRegistry | None = None
    #: the full run parameterisation — makes the report (and any metrics
    #: export stamped with run_config.to_dict()) self-describing.
    run_config: RunConfig | None = None
    #: the run's flight recorder (see docs/flight-recorder.md): the ring
    #: of structured events with causal IDs, which repro.obs.traceview
    #: renders as a Chrome trace or Gantt; None when events=False.
    events: EventLog | None = None
    #: human-readable anomaly warnings (repro.obs.anomaly detectors).
    warnings: list[str] | None = None
    #: sha256 of the committed output bytes — the byte-identity oracle
    #: `repro replay` and the serve-vs-one-shot tests verify against.
    output_sha256: str | None = None
    #: app-specific scalars that don't generalise across job kinds.
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def latencies(self) -> np.ndarray:
        """Per-element latency series (the paper's main y-axis)."""
        return self.result.latencies

    @property
    def arrivals(self) -> np.ndarray:
        return self.result.arrivals

    @property
    def avg_latency(self) -> float:
        return self.result.avg_latency

    @property
    def completion_time(self) -> float:
        return self.result.completion_time
