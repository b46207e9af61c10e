"""Warm worker-pool lanes: the substrate `repro serve` keeps hot.

A **lane** is one started :class:`~repro.sre.executor_procs.WorkerSupervisor`
— worker processes up, pipes connected — waiting for a job. Jobs lease a
lane, build a :class:`~repro.sre.executor_procs.ProcessExecutor` around
it (``supervisor=`` injection; the executor rebinds the supervisor to
the job's runtime and leaves the processes running on shutdown), and
return it. The second job on a lane skips the entire pool start-up:
that latency gap is the tentpole measurement of ``tools/serve_bench.py``.

Lanes are keyed by **pool signature** — ``(tenant, workers,
fault_plan)`` — because a supervisor is stateful in exactly those
dimensions: its fault plan is baked into the worker processes at spawn,
and its respawn budgets are consumed for good. Keying the tenant in
means a tenant whose payloads kill workers poisons only *its own*
lane's seats, never a neighbour's; the circuit breaker then stops the
bleeding and :meth:`LanePool.drop` discards the damaged lane so a
half-open probe gets fresh seats.
"""

from __future__ import annotations

import multiprocessing
import threading
from dataclasses import dataclass, field

from repro.sre.executor_procs import PipeLink, WorkerSupervisor
from repro.sre.runtime import Runtime
from repro.testing.faults import FaultPlan

__all__ = ["LanePool", "WarmLane"]


@dataclass
class WarmLane:
    """One started supervisor plus its lease bookkeeping."""

    key: tuple
    workers: int
    supervisor: WorkerSupervisor
    #: daemon-side runtime the supervisor is parked on between jobs (and
    #: rebound to before the shutdown harvest, so the workers' final
    #: metrics/events land in the daemon registry, not a dead job's).
    home_runtime: Runtime
    in_use: bool = False
    jobs_served: int = 0
    _stopped: bool = field(default=False, repr=False)

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        # Park accounting back home before the harvest: the last job's
        # runtime may already be closed (its event sink flushed).
        self.supervisor.rebind(self.home_runtime)
        self.supervisor.stop()


class LanePool:
    """Get-or-spawn cache of warm lanes, capped at ``max_lanes``.

    ``lease`` returns a free lane for the signature (spawning one if
    needed and the cap allows), or ``None`` — meaning the job should run
    cold, building its own pool the one-shot way. Cold fallback keeps
    the cap a performance knob rather than a correctness constraint.
    """

    def __init__(self, *, home_runtime: Runtime, max_lanes: int = 4,
                 max_respawns: int = 3,
                 harvest_timeout_s: float | None = None) -> None:
        if max_lanes < 0:
            raise ValueError("max_lanes must be >= 0")
        self._home = home_runtime
        self.max_lanes = max_lanes
        self._max_respawns = max_respawns
        self._harvest_timeout_s = harvest_timeout_s
        self._lock = threading.Lock()
        self._lanes: list[WarmLane] = []
        self._closed = False
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            self._ctx = multiprocessing.get_context()
        m = home_runtime.metrics
        self._m_spawns = m.counter(
            "serve_lane_spawns", "warm worker-pool lanes spawned")
        self._m_reuses = m.counter(
            "serve_lane_reuses",
            "jobs that ran on an already-warm lane (pool start-up skipped)")
        self._m_drops = m.counter(
            "serve_lane_drops",
            "lanes discarded after crash-type job failures")
        self._g_lanes = m.gauge(
            "serve_lanes_live", "warm lanes currently alive")

    @staticmethod
    def signature(tenant: str, workers: int,
                  fault_plan: str | None) -> tuple:
        return (tenant, workers, fault_plan or "")

    def lease(self, tenant: str, workers: int,
              fault_plan: str | None = None) -> WarmLane | None:
        """A free warm lane for this signature, or None (run cold)."""
        key = self.signature(tenant, workers, fault_plan)
        with self._lock:
            if self._closed:
                return None
            for lane in self._lanes:
                if lane.key == key and not lane.in_use:
                    lane.in_use = True
                    lane.jobs_served += 1
                    self._m_reuses.inc()
                    self._home.events.emit(
                        "lane_reuse", tenant=tenant, workers=workers,
                        jobs_served=lane.jobs_served)
                    return lane
            if len(self._lanes) >= self.max_lanes:
                return None
            lane = self._spawn(key, tenant, workers, fault_plan)
            lane.in_use = True
            lane.jobs_served = 1
            self._lanes.append(lane)
            return lane

    def _spawn(self, key: tuple, tenant: str, workers: int,
               fault_plan: str | None) -> WarmLane:
        opts: dict = {"max_respawns": self._max_respawns}
        if self._harvest_timeout_s is not None:
            opts["harvest_timeout_s"] = self._harvest_timeout_s
        supervisor = WorkerSupervisor(
            PipeLink(self._ctx), workers, runtime=self._home,
            fault_plan=FaultPlan.parse(fault_plan), **opts)
        supervisor.start()
        self._m_spawns.inc()
        self._g_lanes.inc()
        self._home.events.emit("lane_spawn", tenant=tenant, workers=workers,
                               fault_plan=fault_plan or None)
        return WarmLane(key=key, workers=workers, supervisor=supervisor,
                        home_runtime=self._home)

    def release(self, lane: WarmLane, *, poisoned: bool = False) -> None:
        """Return a leased lane; ``poisoned`` discards it instead.

        A crash-type job failure leaves dead or degraded seats behind —
        respawn budgets are spent for the supervisor's lifetime — so the
        breaker's half-open probe must not inherit them.
        """
        with self._lock:
            lane.in_use = False
            if not poisoned:
                # Park the supervisor's accounting on the daemon runtime
                # between jobs: a stray late crash must not emit into a
                # finished job's closed event log.
                lane.supervisor.rebind(self._home)
                return
            if lane in self._lanes:
                self._lanes.remove(lane)
            self._m_drops.inc()
            self._g_lanes.dec()
            self._home.events.emit("lane_drop", tenant=lane.key[0],
                                   workers=lane.workers)
        lane.stop()

    def stats(self) -> list[dict]:
        with self._lock:
            return [{
                "tenant": lane.key[0],
                "workers": lane.workers,
                "fault_plan": lane.key[2] or None,
                "in_use": lane.in_use,
                "jobs_served": lane.jobs_served,
            } for lane in self._lanes]

    def close(self) -> None:
        """Stop every lane (daemon shutdown): final worker harvests run
        against the daemon runtime."""
        with self._lock:
            self._closed = True
            lanes, self._lanes = self._lanes, []
        for lane in lanes:
            lane.stop()
            self._g_lanes.dec()
