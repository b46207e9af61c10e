"""Experiment scale configuration.

The paper encodes 4 MB of TXT/PDF and 2 MB of BMP in 4 KB blocks (1024 /
1024 / 512 blocks). Running every figure at that scale takes minutes; the
benchmark suite defaults to a quarter-scale geometry that preserves every
qualitative feature (update counts scale with the file, so step-size and
tolerance thresholds are expressed in *update* units and stay put). Set
``REPRO_SCALE=paper`` in the environment (or pass ``scale=PAPER``) for
full-size runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from repro.sre.executor_procs import DEFAULT_DISPATCH_TIMEOUT_S

__all__ = ["ExperimentScale", "QUICK", "PAPER", "RunConfig", "TRANSPORTS",
           "active_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Geometry of one experiment campaign."""

    name: str
    #: blocks per workload (paper: TXT/PDF 1024, BMP 512).
    blocks: dict[str, int]
    block_size: int = 4096
    reduce_ratio: int = 16
    offset_fanout: int = 64
    #: ratios for the socket configuration (paper drops both to 8:1).
    socket_reduce_ratio: int = 8
    socket_offset_fanout: int = 8

    def n_blocks(self, workload: str) -> int:
        return self.blocks[workload]


PAPER = ExperimentScale(
    name="paper",
    blocks={"txt": 1024, "bmp": 512, "pdf": 1024},
)

#: Quarter scale: same block size, same ratios, same *per-update* geometry —
#: 16 updates for BMP, 16 for TXT/PDF... scaled runs keep enough updates for
#: every step size {1..32} used by Fig. 5 to remain meaningful on txt/pdf.
QUICK = ExperimentScale(
    name="quick",
    blocks={"txt": 512, "bmp": 256, "pdf": 512},
)


def active_scale() -> ExperimentScale:
    """Scale selected by the ``REPRO_SCALE`` environment variable."""
    return PAPER if os.environ.get("REPRO_SCALE", "").lower() == "paper" else QUICK


# ---------------------------------------------------------------------------
# RunConfig — one frozen value object for everything run_huffman accepts.
# ---------------------------------------------------------------------------

#: The ``transport`` vocabulary: "pickle" ships block bytes in every
#: payload; "shm" places blocks in shared memory once and ships refs
#: (zero-copy for the process back-end; see docs/transport.md).
TRANSPORTS = ("pickle", "shm")

#: Per-app conventional defaults applied by :meth:`RunConfig.for_app` —
#: the geometry the standalone filter/kmeans runners shipped with before
#: the unified Job API.
_APP_DEFAULTS: dict[str, dict[str, object]] = {
    "huffman": {},
    "filter": {"n_blocks": 64, "step": 2, "verify_k": 4, "tolerance": 0.02},
    "kmeans": {"n_blocks": 48, "step": 2, "verify_k": 4, "tolerance": 0.05},
}


@dataclass(frozen=True)
class RunConfig:
    """All parameters of one job run — the single config object for every
    registered application (huffman, filter, kmeans, ...).

    The primary way to invoke a runner::

        from repro.experiments import RunConfig, run_huffman
        report = run_huffman(config=RunConfig(workload="txt", n_blocks=64,
                                              executor="procs",
                                              transport="shm"))

    or, app-generically, through the jobs registry::

        from repro.experiments.jobs import run_job
        report = run_job(RunConfig.for_app("kmeans", n_blocks=24))

    Frozen so a config can be shared between sweep points, stamped into
    exported metrics (see :meth:`to_dict`) and compared for equality.
    Fields accepting either a registry name or an instance (``platform``,
    ``io``, ``policy``, ``verification``) keep the permissive types the
    bare keywords always had. App-specific geometry fields
    (``block_samples``/``iterations`` for filter,
    ``block_points``/``n_clusters``/``dim``/``drift_blocks`` for kmeans)
    are ignored by apps that don't use them; :meth:`for_app` fills the
    per-app defaults the standalone runners used to carry.
    """

    #: application name — resolved through repro.experiments.jobs.JOBS,
    #: so application-registered job kinds work here too.
    app: str = "huffman"
    workload: object = "txt"          # name or raw bytes
    n_blocks: int | None = None
    block_size: int = 4096
    platform: object = "x86"          # name or Platform instance
    workers: int | None = None
    io: object = "disk"               # name or ArrivalModel instance
    policy: object = "balanced"       # name or DispatchPolicy instance
    speculative: bool = True
    step: int = 1
    verification: object = "every_k"  # name or VerificationPolicy instance
    verify_k: int = 8
    tolerance: float = 0.01
    reduce_ratio: int = 16
    offset_fanout: int = 64
    seed: int = 0
    verify_roundtrip: bool = True
    label: str | None = None
    #: executor back-end name — resolved through repro.sre.registry, so
    #: application-registered back-ends work here too.
    executor: str = "sim"
    feed_gap_s: float = 0.002
    #: payload transport for task dispatch, one of :data:`TRANSPORTS`.
    transport: str = "pickle"
    metrics_out: str | None = None
    metrics_interval_s: float = 5.0
    #: structured event log (flight recorder, docs/flight-recorder.md):
    #: ``events=False`` disables emission entirely; ``events_out`` writes
    #: every event as JSONL for `repro explain`.
    events: bool = True
    events_out: str | None = None
    events_capacity: int = 65536
    #: deterministic fault-injection plan for the process-pool back-ends
    #: (see repro.testing.faults for the grammar, e.g. "kill@3" or
    #: "hang@2:w1,kill@1!"). Requires executor="procs" or "dist"; with
    #: "dist" the plan ships to the remote pool at attach and arms there.
    fault_plan: str | None = None
    #: remote worker-pool address ("host:port") for executor="dist" —
    #: the rendezvous with a running `repro worker-pool`.
    pool: str | None = None
    #: per-payload reply deadline (process back-ends only; ignored
    #: elsewhere). Worker replies stream back one per payload, so each
    #: reply gets this long — the deadline is never scaled by batch size.
    #: The rest of the recovery policy (retries, backoff, respawns,
    #: harvest grace) is fixed: repro.sre.executor_procs's constants.
    dispatch_timeout_s: float = DEFAULT_DISPATCH_TIMEOUT_S
    #: filter app: samples per signal block / design iterations.
    block_samples: int = 4096
    iterations: int = 24
    #: kmeans app: points per block and mixture geometry.
    block_points: int = 512
    n_clusters: int = 8
    dim: int = 4
    drift_blocks: int = 0

    def __post_init__(self) -> None:
        from repro.errors import ExperimentError

        if not isinstance(self.app, str) or not self.app:
            raise ExperimentError("app must be a job name string")
        if self.transport not in TRANSPORTS:
            raise ExperimentError(
                f"unknown transport {self.transport!r}; choose "
                f"{' or '.join(map(repr, TRANSPORTS))}")
        if not isinstance(self.executor, str) or not self.executor:
            raise ExperimentError("executor must be a back-end name string")
        if self.metrics_interval_s <= 0:
            raise ExperimentError("metrics_interval_s must be positive")
        if self.events_capacity < 1:
            raise ExperimentError("events_capacity must be >= 1")
        if self.events_out is not None and not self.events:
            raise ExperimentError("events_out requires events=True")
        if self.dispatch_timeout_s <= 0:
            raise ExperimentError("dispatch_timeout_s must be positive")
        if self.fault_plan is not None:
            if self.executor not in ("procs", "dist"):
                raise ExperimentError(
                    "fault_plan injects worker-process faults; it requires "
                    "executor='procs' or executor='dist'")
            from repro.testing.faults import FaultPlan

            FaultPlan.parse(self.fault_plan)  # validates the spec grammar
        if self.executor == "dist" and self.pool is None:
            raise ExperimentError(
                "executor='dist' needs pool='host:port' — the address of "
                "a running `repro worker-pool`")
        if self.pool is not None:
            if self.executor != "dist":
                raise ExperimentError(
                    "pool= is the dist back-end's rendezvous; it requires "
                    "executor='dist'")
            host, sep, port = str(self.pool).rpartition(":")
            if not sep or not host or not port.isdigit():
                raise ExperimentError(
                    f"pool must be 'host:port', got {self.pool!r}")

    @classmethod
    def from_kwargs(cls, **kwargs: object) -> "RunConfig":
        """Build a config from bare keywords.

        Raises :class:`~repro.errors.ExperimentError` for unknown names,
        listing the valid ones — the error a typo'd keyword used to get
        from Python is now a domain error with the full vocabulary.
        """
        from repro.errors import ExperimentError

        valid = {f.name for f in fields(cls)}
        unknown = sorted(set(kwargs) - valid)
        if unknown:
            raise ExperimentError(
                f"unknown RunConfig parameter(s): {', '.join(unknown)}; "
                f"valid: {', '.join(sorted(valid))}")
        return cls(**kwargs)  # type: ignore[arg-type]

    @classmethod
    def for_app(cls, app: str, **kwargs: object) -> "RunConfig":
        """Build a config with the app's conventional defaults filled in.

        The standalone filter/kmeans runners historically defaulted to a
        different geometry than huffman (fewer blocks, wider step, looser
        tolerance); those defaults live in :data:`_APP_DEFAULTS` now that
        one RunConfig serves every app. Explicit keywords always win.
        Apps without a defaults entry (application-registered job kinds)
        just get the dataclass defaults.
        """
        base: dict[str, object] = dict(_APP_DEFAULTS.get(app, {}))
        base.update(kwargs)
        return cls.from_kwargs(app=app, **base)

    def to_dict(self) -> dict[str, object]:
        """JSON-safe summary of the run parameters.

        Instances degrade to names: byte workloads become ``"custom"``,
        platform/io/policy/verification instances become their ``name``
        attribute or class name. Embedded in metric exports so every
        snapshot is self-describing.
        """
        def _plain(value: object) -> object:
            if value is None or isinstance(value, (bool, int, float, str)):
                return value
            if isinstance(value, (bytes, bytearray, memoryview)):
                return "custom"
            name = getattr(value, "name", None)
            if isinstance(name, str):
                return name
            return type(value).__name__

        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}
