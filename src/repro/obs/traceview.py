"""Trace export and visualisation, rebuilt from the flight recorder.

A run's task timeline is already in its event log
(:mod:`repro.obs.events`); this module joins it into spans and renders

* **Chrome trace-event JSON** (``chrome://tracing`` / Perfetto): one lane
  per task kind, complete events spanning dispatch→done, instant events
  for speculation milestones (speculate / check / rollback / commit /
  recompute / undo);
* an **ASCII Gantt strip** for terminal inspection of who ran when.

Both draw the tasks a live coordinator ran itself (``worker`` =
:data:`~repro.obs.events.COORDINATOR_WORKER`: local tasks on the process
and distributed back-ends) in one ``coordinator`` lane of their own
instead of their kinds' lanes, so the chart shows what the coordinator
was busy with and when.

Task spans join three events by task name: ``task_spawn`` (kind,
speculative) → ``task_dispatch`` (start, worker) → ``task_done`` |
``task_abort`` (end). Timestamps are the executor clock — virtual µs on
``sim``, wall µs on the live back-ends — so the exporters read every
executor alike. Pass a run's :class:`~repro.obs.events.EventLog`
(``report.events``) or the event list of an ``--events-out`` file
(:func:`~repro.obs.events.load_events_jsonl`).

The ring keeps only the newest ``events_capacity`` events. An exporter
handed a ring that has wrapped raises rather than draw a chart with the
start of the run cut off.

:func:`spans_to_chrome_trace` does the same for a served job's
*distributed trace* (the flat span list the ``trace`` op returns, see
:mod:`repro.obs.spans`): daemon stage spans render in one process lane,
worker-clock ``worker_exec`` leaves in another — their monotonic clocks
share no epoch, so mixing them in one lane would draw nonsense overlaps.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator, NamedTuple

from repro.errors import ObservabilityError
from repro.obs.events import COORDINATOR_WORKER, EventLog

__all__ = ["run_events", "to_chrome_trace", "spans_to_chrome_trace",
           "ascii_gantt"]

#: event kind → instant label (the speculation milestone it marks).
_INSTANTS = {"spec_predict": "speculate", "check_pass": "check_pass",
             "check_fail": "check_fail", "rollback_done": "rollback",
             "spec_commit": "commit", "spec_recompute": "recompute",
             "undo": "undo"}

#: envelope fields that do not become an instant's Chrome ``args``.
_ENVELOPE = ("run_id", "kind", "t")

#: the lane of the tasks a live coordinator ran itself
COORDINATOR_LANE = "coordinator"


class _TaskSpan(NamedTuple):
    name: str
    kind: str
    speculative: bool
    start: float
    end: float
    aborted: bool
    worker: Any

    @property
    def lane(self) -> str:
        """The coordinator lane, or the task kind's."""
        return COORDINATOR_LANE if self.worker == COORDINATOR_WORKER else self.kind


def run_events(log: EventLog | Iterable[dict] | None) -> list[dict[str, Any]]:
    """Every event of one run, oldest first.

    Raises :class:`~repro.errors.ObservabilityError` when the run kept no
    log (``events=False``) or when the ring has wrapped (its oldest event
    is not seq 1), because a chart drawn from it would silently miss the
    start of the run.
    """
    if log is None:
        raise ObservabilityError(
            "the run kept no event log (events=False); the trace exporters "
            "read the flight recorder, so re-run with events on")
    events = log.events() if isinstance(log, EventLog) else list(log)
    first = events[0].get("seq", 1) if events else 1
    if first > 1:
        raise ObservabilityError(
            f"the event ring wrapped: its oldest event is seq {first}, so "
            f"the first {first - 1} events of the run are gone. Raise "
            "RunConfig.events_capacity, or record the run with "
            "--events-out (the JSONL sink keeps every event) and export "
            "load_events_jsonl(<that file>)")
    return events


def _task_spans(events: Iterable[dict[str, Any]]) -> Iterator[_TaskSpan]:
    """One span per ``task_done`` / ``task_abort``, in end order.

    A task that ends without a ``task_dispatch`` — reaped from a ready
    queue, or aborted after it had already completed — yields a
    zero-width span at its end time, so aborted work stays visible. The
    worker is the one ``task_done`` names when it names one, else the
    one ``task_dispatch`` named.
    """
    spawned: dict[str, dict[str, Any]] = {}
    started: dict[str, dict[str, Any]] = {}
    for event in events:
        kind = event["kind"]
        if kind == "task_spawn":
            spawned[event["task"]] = event
        elif kind == "task_dispatch":
            started[event["task"]] = event
        elif kind in ("task_done", "task_abort"):
            name = event["task"]
            spawn = spawned.get(name, {})
            start = started.pop(name, event)
            yield _TaskSpan(name, spawn.get("task_kind", "task"),
                            bool(spawn.get("speculative")), start["t"],
                            event["t"], kind == "task_abort",
                            event.get("worker", start.get("worker")))


def _instants(events: Iterable[dict[str, Any]]) -> Iterator[tuple[str, dict]]:
    """``(label:subject, event)`` per speculation milestone."""
    spec = "spec"
    for event in events:
        kind = event["kind"]
        if kind == "task_spawn" and event["task"].endswith(":final"):
            # The manager names its final-value task "<spec>:final", and a
            # recompute always follows it: that names the recompute.
            spec = event["task"][:-len(":final")]
        label = _INSTANTS.get(kind)
        if kind == "spec_launch" and event.get("reused"):
            # Re-speculation reuses the failed check's candidate, so no
            # spec_predict marks the new version.
            label = "speculate"
        if label is None:
            continue
        if kind == "undo":
            subject = event["task"]
        elif kind == "spec_recompute":
            subject = spec
        else:
            subject = f"version:{event['version']}"
        yield f"{label}:{subject}", event


def to_chrome_trace(log: EventLog | Iterable[dict] | None) -> str:
    """Serialise a run's event log to Chrome trace-event JSON (a string)."""
    events = run_events(log)
    out: list[dict] = []
    for span in _task_spans(events):
        args = {"speculative": span.speculative, "aborted": span.aborted}
        if span.worker is not None:
            args["worker"] = span.worker
        out.append({
            "name": span.name,
            "cat": ("speculative," if span.speculative else "") + span.kind,
            "ph": "X",
            "ts": span.start,
            "dur": max(span.end - span.start, 0.001),
            "pid": 1,
            "tid": span.lane,
            "args": args,
        })
    for name, event in _instants(events):
        out.append({
            "name": name,
            "cat": "speculation",
            "ph": "i",
            "ts": event["t"],
            "pid": 1,
            "tid": "speculation",
            "s": "g",
            "args": {k: v for k, v in event.items() if k not in _ENVELOPE},
        })
    return json.dumps({"traceEvents": out, "displayTimeUnit": "ms"})


#: span attrs that become Chrome ``args`` when present.
_SPAN_ARG_KEYS = ("tenant", "outcome", "state", "status", "worker", "task",
                  "job", "trace_id", "span_id", "parent_id")


def spans_to_chrome_trace(spans: list[dict[str, Any]]) -> str:
    """Serialise a served job's span list to Chrome trace-event JSON.

    Daemon-clock spans land in pid 1 with one thread lane per span name
    (job / admission / queue / lane_lease / execute / stream / result);
    worker-clock leaves land in pid 2, one lane per worker. Open spans
    (``t1_us`` null — a still-running job) render as zero-width markers
    at their start time rather than being dropped.
    """
    events: list[dict] = []
    for span in spans:
        t0 = float(span.get("t0_us") or 0.0)
        t1 = span.get("t1_us")
        dur = max(float(t1) - t0, 0.001) if t1 is not None else 0.001
        worker_clock = span.get("clock") == "worker"
        args = {k: span[k] for k in _SPAN_ARG_KEYS
                if span.get(k) is not None}
        if t1 is None:
            args["open"] = True
        events.append({
            "name": str(span.get("name", "span")),
            "cat": "worker" if worker_clock else "serve",
            "ph": "X",
            "ts": t0,
            "dur": dur,
            "pid": 2 if worker_clock else 1,
            "tid": (f"worker-{span.get('worker', '?')}" if worker_clock
                    else str(span.get("name", "span"))),
            "args": args,
        })
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


def ascii_gantt(
    log: EventLog | Iterable[dict] | None,
    *,
    width: int = 72,
    kinds: Iterable[str] | None = None,
) -> str:
    """One text lane per task kind; '#' marks busy time, '!' aborted work.

    Lanes aggregate all tasks of a kind (the paper's pipelines run hundreds
    of tasks per kind — per-task lanes would be unreadable); a column is
    busy if *any* task of that kind ran during it. Tasks the coordinator
    ran itself share the ``coordinator`` lane; ``kinds`` still filters
    them by kind.
    """
    spans = list(_task_spans(run_events(log)))
    if not spans:
        return "(empty trace)"
    t_end = max(max(span.end for span in spans), 1e-9)
    wanted = set(kinds) if kinds is not None else None
    lanes: dict[str, list[str]] = {}
    for span in spans:
        if wanted is not None and span.kind not in wanted:
            continue
        lane = lanes.setdefault(span.lane, [" "] * width)
        c0 = min(width - 1, int(span.start / t_end * width))
        c1 = min(width - 1, int(span.end / t_end * width))
        mark = "!" if span.aborted else "#"
        for c in range(c0, c1 + 1):
            if lane[c] != "!":  # aborted work stays visible
                lane[c] = mark
    label_w = max(len(k) for k in lanes) if lanes else 0
    lines = [f"0 {'·' * (width - 12)} {t_end:,.0f} µs"]
    for kind in sorted(lanes):
        lines.append(f"{kind.rjust(label_w)} |{''.join(lanes[kind])}|")
    return "\n".join(lines)
