"""Post-mortem reconstruction of rollback cascades from the event log.

``repro explain run.events.jsonl`` walks the flight recorder's ``cause``
edges backwards and forwards around each ``destroy_signal``:

* **backwards** to the root cause — the ``check_fail`` that pulled the
  trigger, and above it the ``spec_launch`` / ``spec_predict`` that
  created the doomed version;
* **forwards** over the fan-out — every ``task_abort`` (including ones
  reaped later on the process back-end, whose cause was stamped when the
  destroy signal flagged them), ``buffer_discard`` and ``shm_release``
  the signal caused;
* **sideways** to the rebuild — the re-speculation ``spec_launch`` that
  shares the failed check as its cause.

The totals printed here are what the metrics surface is folded from (the
:class:`~repro.core.rollback.RollbackEngine` tallies fold ``rollback_done``
events), and ``shm_release`` byte sums match
``shm_bytes_released{reason=rollback}``.

The same machinery explains **physical** failure: each ``worker_crash``
event (process back-end; see docs/fault-tolerance.md) roots a
crash-recovery cascade — the ``worker_respawn`` or ``worker_degraded``
that replaced the process, every ``task_retry`` re-dispatch, any
``task_quarantine`` give-ups with their forced ``shm_release``
(``reason="crash"``), and follow-on ``worker_crash`` events when the
replacement died too.

On the process and distributed back-ends the report ends with the **task
lanes**: tasks and busy time per worker seat and for the coordinator,
which runs local tasks (control tasks and serial-chain links) itself —
so a slow check or chain shows up as coordinator time, not as a worker's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.obs.events import (COORDINATOR_WORKER, children_of, index_by_seq,
                              read_event_log, walk_to_root)

__all__ = ["RollbackCascade", "CrashCascade", "build_cascades",
           "build_crash_cascades", "format_cascades",
           "format_crash_cascades", "format_lanes", "explain_events",
           "explain_path"]


@dataclass
class RollbackCascade:
    """One destroy signal and everything it caused."""

    destroy: dict[str, Any]
    #: cause chain from the destroy signal up to its root (oldest last).
    root_chain: list[dict[str, Any]] = field(default_factory=list)
    aborts: list[dict[str, Any]] = field(default_factory=list)
    discards: list[dict[str, Any]] = field(default_factory=list)
    releases: list[dict[str, Any]] = field(default_factory=list)
    #: the re-speculation launched off this cascade's failed check.
    rebuilds: list[dict[str, Any]] = field(default_factory=list)
    #: engine totals from the paired rollback_done event.
    tasks_destroyed: int = 0
    buffer_discarded: int = 0
    wasted_us: float = 0.0

    @property
    def version(self) -> int | None:
        return self.destroy.get("version")

    @property
    def freed_bytes(self) -> int:
        """Shared-memory bytes released with reason=rollback."""
        return sum(int(e.get("nbytes", 0)) for e in self.releases
                   if e.get("reason") == "rollback")

    @property
    def freed_refs(self) -> int:
        return sum(int(e.get("refs", 0)) for e in self.releases
                   if e.get("reason") == "rollback")


def build_cascades(
    events: list[dict[str, Any]], version: int | None = None
) -> list[RollbackCascade]:
    """Group the event list into per-destroy-signal cascades.

    ``version`` filters to one speculation version's rollback(s).
    """
    by_seq = index_by_seq(events)
    kids = children_of(events)
    cascades: list[RollbackCascade] = []
    for event in events:
        if event.get("kind") != "destroy_signal":
            continue
        if version is not None and event.get("version") != version:
            continue
        cascade = RollbackCascade(destroy=event)
        cascade.root_chain = walk_to_root(event, by_seq)[1:]
        for child in kids.get(event["seq"], ()):
            kind = child.get("kind")
            if kind == "task_abort":
                cascade.aborts.append(child)
            elif kind == "buffer_discard":
                cascade.discards.append(child)
            elif kind == "shm_release":
                cascade.releases.append(child)
            elif kind == "rollback_done":
                cascade.tasks_destroyed = int(child.get("tasks_destroyed", 0))
                cascade.buffer_discarded = int(child.get("buffer_discarded", 0))
                cascade.wasted_us = float(child.get("wasted_us", 0.0))
        # The rebuild hangs off the *check_fail* (shared cause with the
        # destroy signal), not off the destroy signal itself.
        trigger = cascade.destroy.get("cause")
        if trigger is not None:
            cascade.rebuilds = [
                c for c in kids.get(trigger, ())
                if c.get("kind") in ("spec_launch", "spec_predict")
            ]
        cascades.append(cascade)
    return cascades


@dataclass
class CrashCascade:
    """One worker crash and the recovery it caused.

    Built from the cause tree rooted at a ``worker_crash`` event. A
    replacement worker dying again shows up as a *follow-on* crash: its
    event is a descendant of this root, and its own recovery children are
    folded into this cascade (one cascade per original failure, however
    many incarnations it burned through).
    """

    crash: dict[str, Any]
    respawns: list[dict[str, Any]] = field(default_factory=list)
    degraded: list[dict[str, Any]] = field(default_factory=list)
    retries: list[dict[str, Any]] = field(default_factory=list)
    quarantines: list[dict[str, Any]] = field(default_factory=list)
    releases: list[dict[str, Any]] = field(default_factory=list)
    follow_on: list[dict[str, Any]] = field(default_factory=list)

    @property
    def worker(self) -> int | None:
        return self.crash.get("worker")

    @property
    def reason(self) -> str:
        """Why the worker was lost: ``crash`` / ``hang`` / ``protocol``."""
        return self.crash.get("reason", "unknown")

    @property
    def crash_freed_bytes(self) -> int:
        """Shared-memory bytes force-released with reason=crash."""
        return sum(int(e.get("nbytes", 0)) for e in self.releases
                   if e.get("reason") == "crash")


def build_crash_cascades(events: list[dict[str, Any]]) -> list[CrashCascade]:
    """Group worker crashes and their recovery into per-root cascades.

    Only crashes without a ``worker_crash`` ancestor root a cascade;
    descendants (a respawned worker dying again) fold into their root's
    ``follow_on`` list along with their own recovery events.
    """
    by_seq = index_by_seq(events)
    kids = children_of(events)

    def _has_crash_ancestor(event: dict[str, Any]) -> bool:
        return any(e.get("kind") == "worker_crash"
                   for e in walk_to_root(event, by_seq)[1:])

    cascades: list[CrashCascade] = []
    for event in events:
        if event.get("kind") != "worker_crash":
            continue
        if _has_crash_ancestor(event):
            continue
        cascade = CrashCascade(crash=event)
        frontier = [event["seq"]]
        while frontier:
            seq = frontier.pop()
            for child in kids.get(seq, ()):
                kind = child.get("kind")
                if kind == "worker_respawn":
                    cascade.respawns.append(child)
                elif kind == "worker_degraded":
                    cascade.degraded.append(child)
                elif kind == "task_retry":
                    cascade.retries.append(child)
                elif kind == "task_quarantine":
                    cascade.quarantines.append(child)
                elif kind == "shm_release":
                    cascade.releases.append(child)
                elif kind == "worker_crash":
                    cascade.follow_on.append(child)
                else:
                    continue
                frontier.append(child["seq"])
        cascades.append(cascade)
    return cascades


def format_crash_cascades(cascades: list[CrashCascade]) -> str:
    """Render the worker-crash recovery section of `repro explain`."""
    out: list[str] = [f"{len(cascades)} worker-crash cascade(s)"]
    for i, cascade in enumerate(cascades, 1):
        crash = cascade.crash
        out.append("")
        exitcode = crash.get("exitcode")
        detail = f", exitcode {exitcode}" if exitcode is not None else ""
        inflight = crash.get("inflight", 0)
        out.append(f"crash #{i}: worker {cascade.worker} lost "
                   f"({cascade.reason}{detail}) with {inflight} payload(s) "
                   f"in flight [seq {crash.get('seq')}]")
        tasks = crash.get("tasks")
        if tasks:
            out.append(f"  in flight: {', '.join(tasks)}")
        for follow in cascade.follow_on:
            out.append(f"  follow-on crash: worker {follow.get('worker')} "
                       f"lost again ({follow.get('reason', 'unknown')}) "
                       f"[seq {follow.get('seq')}]")
        for respawn in cascade.respawns:
            out.append(f"  respawn: worker {respawn.get('worker')} "
                       f"incarnation {respawn.get('incarnation')} "
                       f"({respawn.get('respawns')} used)")
        for deg in cascade.degraded:
            out.append(f"  degraded: worker {deg.get('worker')} fell back "
                       f"to coordinator-inline execution "
                       f"({deg.get('reason')})")
        if cascade.retries:
            names = {e.get("task") for e in cascade.retries}
            out.append(f"  retried: {len(cascade.retries)} re-dispatch(es) "
                       f"across {len(names)} task(s)")
        for q in cascade.quarantines:
            out.append(f"  quarantined: {q.get('task')} after "
                       f"{q.get('attempts')} attempt(s)")
        if cascade.crash_freed_bytes or any(
                e.get("reason") == "crash" for e in cascade.releases):
            out.append(f"  shm released (crash): "
                       f"{cascade.crash_freed_bytes} B force-freed")
    return "\n".join(out)


def _describe_root(cascade: RollbackCascade) -> list[str]:
    lines: list[str] = []
    if not cascade.root_chain:
        lines.append("root cause: (none recorded — rollback without a "
                     "failed check, e.g. a half-born version at finalize)")
        return lines
    trigger = cascade.root_chain[0]
    if trigger.get("kind") == "check_fail":
        err = trigger.get("error")
        tol = trigger.get("tolerance")
        what = (f"error {err:.4g}" if err is not None else "failed check")
        if tol is not None:
            what += f" > tolerance {tol:.4g}"
        where = "final check" if trigger.get("final") else (
            f"check @u{trigger.get('index')}")
        lines.append(f"root cause: {where} on v{trigger.get('version')} "
                     f"({what}) [seq {trigger.get('seq')}]")
    else:
        lines.append(f"root cause: {trigger.get('kind')} "
                     f"[seq {trigger.get('seq')}]")
    if len(cascade.root_chain) > 1:
        chain = " → ".join(
            f"{e.get('kind')}(seq {e.get('seq')})"
            for e in reversed(cascade.root_chain))
        lines.append(f"lineage: {chain} → destroy_signal"
                     f"(seq {cascade.destroy.get('seq')})")
    return lines


def format_cascades(cascades: list[RollbackCascade],
                    run_id: str | None = None) -> str:
    """Render cascades as the `repro explain` report."""
    out: list[str] = []
    header = f"run {run_id} — " if run_id else ""
    out.append(f"{header}{len(cascades)} rollback cascade(s)")
    for i, cascade in enumerate(cascades, 1):
        out.append("")
        t = cascade.destroy.get("t")
        stamp = f" at t={t:.0f} µs" if isinstance(t, (int, float)) else ""
        out.append(f"cascade #{i}: version {cascade.version} "
                   f"rolled back{stamp}")
        for line in _describe_root(cascade):
            out.append(f"  {line}")
        out.append(f"  destroyed: {cascade.tasks_destroyed} task(s), "
                   f"{cascade.buffer_discarded} buffered entr(ies), "
                   f"{cascade.wasted_us / 1e6:.4f} wasted task-seconds")
        if cascade.releases:
            out.append(f"  shm released (rollback): {cascade.freed_refs} "
                       f"ref(s), {cascade.freed_bytes} B")
        if cascade.aborts:
            out.append("  destroyed-task tree:")
            for abort in cascade.aborts:
                extras = []
                if abort.get("while_running"):
                    extras.append("reaped while running")
                if abort.get("after_done"):
                    extras.append("undone after completion")
                if abort.get("ran_us") is not None:
                    extras.append(f"{abort['ran_us']:.0f} µs sunk")
                note = f" ({', '.join(extras)})" if extras else ""
                out.append(f"    ├─ {abort.get('task')}{note}")
        for rebuild in cascade.rebuilds:
            out.append(f"  rebuild: {rebuild.get('kind')} "
                       f"v{rebuild.get('version')}"
                       + (" (reused candidate)" if rebuild.get("reused")
                          else ""))
    if cascades:
        total_tasks = sum(c.tasks_destroyed for c in cascades)
        total_bytes = sum(c.freed_bytes for c in cascades)
        total_wasted = sum(c.wasted_us for c in cascades) / 1e6
        out.append("")
        out.append(f"totals: {total_tasks} tasks destroyed · "
                   f"{total_bytes} B shm freed · "
                   f"{total_wasted:.4f} wasted task-seconds")
    return "\n".join(out)


def format_lanes(events: list[dict[str, Any]]) -> str:
    """Render tasks and busy time per worker lane, the coordinator's own
    lane last; empty when no task ran on the coordinator (sim, threads).
    """
    kinds = {e.get("task"): e.get("task_kind", "task") for e in events
             if e.get("kind") == "task_spawn"}
    lanes: dict[Any, tuple[int, float, Counter]] = {}
    for e in events:
        if e.get("kind") != "task_done" or e.get("worker") is None:
            continue
        n, busy, by_kind = lanes.get(e["worker"], (0, 0.0, Counter()))
        by_kind[kinds.get(e.get("task"), "task")] += 1
        lanes[e["worker"]] = (n + 1, busy + (e.get("dur_us") or 0.0), by_kind)
    if COORDINATOR_WORKER not in lanes:
        return ""
    out = ["task lanes"]
    for worker in sorted(lanes, key=lambda w: (w == COORDINATOR_WORKER, w)):
        n, busy, by_kind = lanes[worker]
        name = "coordinator" if worker == COORDINATOR_WORKER else f"worker {worker}"
        mix = " · ".join(f"{k} {c}" for k, c in sorted(by_kind.items()))
        out.append(f"  {name:<12} {n:>5} task(s) {busy / 1e3:>10.1f} ms busy"
                   f"  ({mix})")
    return "\n".join(out)


def explain_events(events: list[dict[str, Any]],
                   version: int | None = None) -> str:
    """Build and render the cascade report for an in-memory event list.

    Rollback cascades first, then — when the run saw physical failure —
    the worker-crash recovery section, then — when the coordinator ran
    tasks itself — the task lanes.
    """
    run_id = events[0].get("run_id") if events else None
    report = format_cascades(build_cascades(events, version), run_id)
    crashes = build_crash_cascades(events)
    if crashes:
        report += "\n\n" + format_crash_cascades(crashes)
    lanes = format_lanes(events)
    if lanes:
        report += "\n\n" + lanes
    return report


def explain_path(path: str, version: int | None = None) -> str:
    """Build and render the cascade report for an ``*.events.jsonl`` file.

    Degrades gracefully on header-less (pre-schema) logs — cascades need
    no header — but rejects logs stamped with a *different* schema
    version with a clear :class:`~repro.errors.EventSchemaError`.
    """
    _header, events = read_event_log(path, require_header=False)
    return explain_events(events, version)
