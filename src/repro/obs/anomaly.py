"""Threshold anomaly detectors over the flight recorder and the registry.

Run at end of every job by :func:`repro.experiments.scaffold.run_app`
(and usable standalone over any event list). Each detector returns
:class:`Anomaly` records; :func:`scan_run` additionally emits one
``anomaly_<kind>`` event per finding into the log — *before* the JSONL
sink closes, so post-mortems see the verdicts next to the raw events —
and renders the ``warnings`` list carried on ``RunReport``.

Detectors (thresholds in :class:`AnomalyThresholds`):

* **mis-speculation burst** — ``burst_k`` or more ``destroy_signal``
  events inside a window of ``burst_window_frac`` of the run's span:
  speculation is thrashing, the tolerance/step knobs need retuning.
* **ready-queue stall** — some task waited longer than
  ``stall_frac`` of the run span (and at least ``stall_floor_us``)
  between ``task_ready`` and ``task_dispatch``: workers were saturated
  or the dispatch policy starved a queue.
* **payload-budget pressure** — the largest payload footprint a process
  back-end shipped came within ``budget_frac`` of the configured budget:
  the next workload size bump will start failing dispatches.
* **worker churn** — ``crash_k`` or more ``worker_crash`` events: worker
  processes are dying (OOM kills, native-extension crashes, injected
  faults); the run completed only because the supervisor kept respawning.
  The message carries the recovery tally (respawns, quarantined tasks,
  degraded seats).
* **harvest loss** — any ``worker_harvest_lost`` event whose reason is
  not ``"degraded"``: a worker's final metrics/events snapshot never
  arrived at shutdown, so worker-side counters under-report this run.
  (A degraded seat has no pipe *by design* — its loss is the worker-churn
  detector's story, not a harvest failure.)
* **breaker flap** — one tenant's circuit breaker opened ``flap_k`` or
  more times within ``flap_window_us`` (``breaker_open`` events from a
  serve daemon's log): the tenant is crash-looping — its cooldown
  expires, a half-open probe admits another job, that job crashes the
  workers again. Back the tenant off instead of letting it burn a warm
  lane per cooldown. The serve daemon runs this detector live over its
  own ``breaker_open`` events (its ``stats`` op surfaces the warning),
  as well as offline over recorded event logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.events import EventLog

__all__ = ["Anomaly", "AnomalyThresholds", "detect_anomalies",
           "report_anomalies", "scan_run"]


@dataclass(frozen=True)
class Anomaly:
    """One detector finding."""

    kind: str          # e.g. "misspec_burst"
    message: str       # human-readable, shown in RunReport.warnings
    data: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class AnomalyThresholds:
    burst_k: int = 3
    burst_window_frac: float = 0.25
    stall_frac: float = 0.25
    stall_floor_us: float = 50_000.0
    budget_frac: float = 0.8
    crash_k: int = 1
    flap_k: int = 3
    flap_window_us: float = 60e6


def _coordinator_events(events: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Events on the coordinator clock (worker events share no epoch)."""
    return [e for e in events if e.get("clock") != "worker"]


def _span(events: list[dict[str, Any]]) -> float:
    times = [e["t"] for e in events if "t" in e]
    return (max(times) - min(times)) if len(times) > 1 else 0.0


def _detect_misspec_burst(
    events: list[dict[str, Any]], th: AnomalyThresholds
) -> Anomaly | None:
    destroys = [e["t"] for e in events if e.get("kind") == "destroy_signal"]
    if len(destroys) < th.burst_k:
        return None
    span = _span(events)
    window = max(span * th.burst_window_frac, 1.0)
    destroys.sort()
    for i in range(len(destroys) - th.burst_k + 1):
        burst = destroys[i + th.burst_k - 1] - destroys[i]
        if burst <= window:
            return Anomaly(
                "misspec_burst",
                f"mis-speculation burst: {th.burst_k} rollbacks within "
                f"{burst:.0f} µs (window {window:.0f} µs) — tolerance/step "
                "knobs are mispredicting this stream",
                {"rollbacks": len(destroys), "burst_us": burst,
                 "window_us": window},
            )
    return None


def _detect_ready_stall(
    events: list[dict[str, Any]], th: AnomalyThresholds
) -> Anomaly | None:
    span = _span(events)
    threshold = max(span * th.stall_frac, th.stall_floor_us)
    ready_at: dict[str, float] = {}
    worst: tuple[float, str] | None = None
    for event in events:
        kind = event.get("kind")
        task = event.get("task")
        if task is None:
            continue
        if kind == "task_ready":
            ready_at[task] = event["t"]
        elif kind == "task_dispatch" and task in ready_at:
            wait = event["t"] - ready_at.pop(task)
            if wait > threshold and (worst is None or wait > worst[0]):
                worst = (wait, task)
    if worst is None:
        return None
    return Anomaly(
        "ready_stall",
        f"ready-queue stall: task {worst[1]!r} waited {worst[0]:.0f} µs "
        f"between ready and dispatch (threshold {threshold:.0f} µs)",
        {"task": worst[1], "wait_us": worst[0], "threshold_us": threshold},
    )


def _detect_budget_pressure(
    snapshot: dict[str, Any], th: AnomalyThresholds
) -> Anomaly | None:
    by_name = {m["name"]: m for m in snapshot.get("metrics", ())}

    def _gauge(name: str) -> float:
        series = by_name.get(name, {}).get("series", [])
        return max((s.get("value", 0.0) for s in series), default=0.0)

    budget = _gauge("procs_payload_budget_bytes")
    peak = _gauge("procs_payload_max_footprint_bytes")
    if budget <= 0 or peak < th.budget_frac * budget:
        return None
    return Anomaly(
        "budget_pressure",
        f"payload-budget pressure: peak footprint {peak:.0f} B is "
        f"{peak / budget:.0%} of the {budget:.0f} B budget — the next "
        "size bump will fail dispatches",
        {"peak_bytes": peak, "budget_bytes": budget},
    )


def _detect_worker_churn(
    events: list[dict[str, Any]], th: AnomalyThresholds
) -> Anomaly | None:
    crashes = [e for e in events if e.get("kind") == "worker_crash"]
    if len(crashes) < th.crash_k:
        return None
    causes: dict[str, int] = {}
    for e in crashes:
        reason = e.get("reason", "unknown")
        causes[reason] = causes.get(reason, 0) + 1
    respawns = sum(1 for e in events if e.get("kind") == "worker_respawn")
    quarantined = sum(1 for e in events if e.get("kind") == "task_quarantine")
    degraded = sum(1 for e in events if e.get("kind") == "worker_degraded")
    cause_str = ", ".join(f"{k}×{v}" for k, v in sorted(causes.items()))
    return Anomaly(
        "worker_churn",
        f"worker churn: {len(crashes)} worker crash(es) ({cause_str}); "
        f"recovery: {respawns} respawn(s), {quarantined} task(s) "
        f"quarantined, {degraded} seat(s) degraded to inline — the run "
        "survived on the supervisor, not on healthy workers",
        {"crashes": len(crashes), "causes": causes, "respawns": respawns,
         "quarantined": quarantined, "degraded": degraded},
    )


def _detect_breaker_flap(
    events: list[dict[str, Any]], th: AnomalyThresholds
) -> Anomaly | None:
    opens_by_tenant: dict[str, list[float]] = {}
    for e in events:
        if e.get("kind") == "breaker_open" and "t" in e:
            opens_by_tenant.setdefault(str(e.get("tenant")), []).append(e["t"])
    worst: tuple[int, float, str] | None = None  # (count, burst_us, tenant)
    for tenant, times in opens_by_tenant.items():
        if len(times) < th.flap_k:
            continue
        times.sort()
        # Sliding window: the tightest k-open burst for this tenant.
        for i in range(len(times) - th.flap_k + 1):
            burst = times[i + th.flap_k - 1] - times[i]
            if burst > th.flap_window_us:
                continue
            count = sum(1 for t in times
                        if times[i] <= t <= times[i] + th.flap_window_us)
            if worst is None or count > worst[0]:
                worst = (count, burst, tenant)
            break
    if worst is None:
        return None
    count, burst, tenant = worst
    return Anomaly(
        "breaker_flap",
        f"breaker flap: tenant {tenant!r} circuit opened {count}x within "
        f"{burst:.0f} µs (threshold {th.flap_k} in "
        f"{th.flap_window_us:.0f} µs) — the tenant is crash-looping "
        "through half-open probes; back it off instead of burning a warm "
        "lane per cooldown",
        {"tenant": tenant, "opens": count, "burst_us": burst,
         "window_us": th.flap_window_us},
    )


def _detect_harvest_loss(
    events: list[dict[str, Any]], th: AnomalyThresholds
) -> Anomaly | None:
    lost = [e for e in events
            if e.get("kind") == "worker_harvest_lost"
            and e.get("reason") != "degraded"]
    if not lost:
        return None
    workers = sorted({e.get("worker") for e in lost})
    return Anomaly(
        "harvest_loss",
        f"harvest loss: {len(lost)} worker(s) {workers} never delivered "
        "their final metrics/events snapshot — worker-side counters "
        "under-report this run",
        {"lost": len(lost), "workers": workers},
    )


def detect_anomalies(
    events: list[dict[str, Any]],
    snapshot: dict[str, Any] | None = None,
    *,
    thresholds: AnomalyThresholds | None = None,
) -> list[Anomaly]:
    """Run every detector; returns findings (possibly empty)."""
    th = thresholds if thresholds is not None else AnomalyThresholds()
    coord = _coordinator_events(events)
    found = [
        _detect_misspec_burst(coord, th),
        _detect_ready_stall(coord, th),
        _detect_worker_churn(coord, th),
        _detect_harvest_loss(coord, th),
        _detect_breaker_flap(coord, th),
    ]
    if snapshot is not None:
        found.append(_detect_budget_pressure(snapshot, th))
    return [a for a in found if a is not None]


def scan_run(
    log: EventLog,
    registry: Any | None = None,
    *,
    thresholds: AnomalyThresholds | None = None,
) -> list[str]:
    """End-of-run scan: detect, emit ``anomaly_*`` events, return warnings."""
    if not log.enabled:
        return []
    snapshot = registry.snapshot() if registry is not None else None
    return report_anomalies(log, detect_anomalies(log.events(), snapshot,
                                                  thresholds=thresholds))


def report_anomalies(log: EventLog, anomalies: list[Anomaly]) -> list[str]:
    """Emit one ``anomaly_<kind>`` event per finding; return warnings."""
    for anomaly in anomalies:
        log.emit(f"anomaly_{anomaly.kind}", message=anomaly.message,
                 **anomaly.data)
    return [f"{a.kind}: {a.message}" for a in anomalies]
