"""Settings of the two daemons: `repro serve` and `repro worker-pool`.

Each dataclass is the one declaration of its daemon's knobs: the daemon
reads them, and the CLI takes each option's dest and default from the
field it fills. The worker recovery policy (respawn budget, harvest
grace, retries) is not a daemon knob: it is the procs executor's
constants, the same for every seat. This module imports nothing, so
building the CLI parser never imports a daemon.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PoolSettings", "ServeSettings"]


@dataclass
class ServeSettings:
    """Every knob of the serve daemon, CLI-mappable and test-injectable."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port back from .port
    #: job worker threads — the daemon-wide running-job parallelism.
    job_workers: int = 2
    max_tenant_jobs: int = 2
    max_tenant_bytes: int = 64 << 20
    queue_limit: int = 8
    breaker_threshold: int = 2
    breaker_cooldown_s: float = 30.0
    max_lanes: int = 4
    #: seconds a live job's block_source waits for the next streamed block.
    stream_timeout_s: float = 60.0
    #: JSONL path for the daemon's own flight recorder (lifecycle events).
    events_out: str | None = None
    #: metrics snapshot path, rewritten every ``metrics_interval_s`` by a
    #: daemon thread (and once more on shutdown); None disables.
    metrics_out: str | None = None
    #: seconds between ``metrics_out`` snapshots.
    metrics_interval_s: float = 5.0
    #: per-connection idle timeout: a peer that stays silent this long is
    #: disconnected, so an idle (or slow-loris) client cannot pin a
    #: handler thread in ``recv_frame`` forever. None disables.
    conn_idle_timeout_s: float | None = 300.0
    #: written with the bound port once listening — CI's rendezvous.
    port_file: str | None = None


@dataclass
class PoolSettings:
    """Every knob of the pool daemon, CLI-mappable and test-injectable."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port back from .port
    #: written with the bound port once listening — CI's rendezvous.
    port_file: str | None = None
    #: default chaos plan armed on every attached session's workers when
    #: the coordinator ships none — `repro worker-pool --fault kill@3`
    #: injects faults on the *remote* side of the wire.
    fault_plan: str | None = None
    #: cap on seats a single attach may request.
    max_workers: int = 16
    #: JSONL path for the pool's own lifecycle events (attach/detach).
    events_out: str | None = None
