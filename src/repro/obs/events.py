"""Structured event log with causal IDs — the "flight recorder".

Metrics (:mod:`repro.obs.metrics`) answer *how much*; the event log
answers *why*. Every noteworthy state transition in the runtime emits one
event — a plain dict — into an :class:`EventLog`: a bounded in-memory ring
buffer with an optional JSONL sink. Each event carries::

    run_id   short hex id of the run that produced it
    seq      coordinator-assigned monotonically increasing integer
    t        monotonic timestamp (µs, same clock as the executor)
    kind     event kind, e.g. "task_spawn", "check_fail", "destroy_signal"
    task     task name (when the event concerns one task)
    version  speculation version id (when the event concerns one version)
    cause    seq of the event that *caused* this one (None for roots)

plus kind-specific payload fields (predicted/observed values, error,
byte counts, ...). ``cause`` edges make speculation lineage a walkable
graph::

    spec_predict -> spec_launch -> task_spawn*            (optimistic arm)
    spec_launch  -> check_fail  -> destroy_signal         (mis-speculation)
    destroy_signal -> task_abort* / buffer_discard / shm_release
    check_fail   -> spec_launch (rebuild)                 (re-speculation)

Causality is threaded implicitly: code that triggers a fan-out wraps the
fan-out in ``with events.cause(seq):`` and every event emitted on that
thread (including deep inside the runtime) defaults its ``cause`` to the
innermost active scope. That keeps call sites honest — the Runtime does
not need to know *why* a task is being aborted to record who signed the
destruction order.

Worker processes keep their own :class:`EventLog` (seqs and clock are
process-local); the coordinator merges them in with
:meth:`EventLog.merge_worker`, which re-assigns coordinator seqs while
preserving order and remapping intra-batch ``cause`` references, and tags
each event with ``worker`` / ``worker_seq`` so per-worker ordering stays
reconstructible.

Counters are *derived* from the stream, not kept beside it: the event is
the one write of a fact, and a counter is a **fold** registered per event
kind with :meth:`EventLog.fold` — the stream's running sum (table in
docs/flight-recorder.md). Folds run with the ring disabled or wrapped,
never on merged worker/remote events (those were folded where emitted).

The hot path (``emit`` into the ring, no sink) is a dict build plus a
deque append under a lock — cheap enough to leave on for every run.
"""

from __future__ import annotations

import json
import threading
import uuid
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.errors import EventSchemaError
from repro.obs.metrics import MONOTONIC_CLOCK

__all__ = [
    "EVENTS_SCHEMA",
    "EVENTS_SCHEMA_VERSION",
    "COORDINATOR_WORKER",
    "EventLog",
    "default_clock",
    "load_events_jsonl",
    "read_event_log",
    "index_by_seq",
    "children_of",
    "walk_to_root",
]

#: Schema identifier stamped into the ``log_header`` record of every
#: JSONL sink. Bump :data:`EVENTS_SCHEMA_VERSION` whenever an event kind
#: or field changes meaning in a way replay/explain must not silently
#: misread — readers reject mismatched logs with a clear error instead
#: of drifting.
EVENTS_SCHEMA = "repro.events"
EVENTS_SCHEMA_VERSION = 1

#: The ``worker`` a live executor stamps on the ``task_dispatch`` /
#: ``task_done`` events of a task its coordinator ran itself (a local
#: task; see :mod:`repro.sre.executor_base`). Worker seats are numbered
#: from 0, so the coordinator lane never collides with one.
COORDINATOR_WORKER = -1


def default_clock() -> float:
    """Monotonic microseconds, derived from the same
    :data:`~repro.obs.metrics.MONOTONIC_CLOCK` histogram timers use —
    immune to wall-clock jumps (NTP, DST)."""
    return MONOTONIC_CLOCK() * 1e6


def new_run_id() -> str:
    return uuid.uuid4().hex[:8]


class EventLog:
    """Bounded ring of structured events plus an optional JSONL sink.

    Parameters
    ----------
    run_id:
        Identifier stamped on every event; generated when omitted.
    capacity:
        Ring size. The ring keeps the *most recent* ``capacity`` events;
        the JSONL sink (when given) receives every event regardless.
    path:
        Optional JSONL file path. One event per line, append-only,
        flushed on :meth:`close`.
    clock:
        Callable returning the event timestamp (µs). Defaults to
        :func:`default_clock`; the Runtime rebinds it to the executor
        clock so event and histogram timings share a time base.
    enabled:
        When False no event is kept (no ring, sink or seqs; :meth:`emit`
        returns ``0``) — for overhead measurements and opt-outs. Events
        of a kind with folds are still built and folded.
    meta:
        JSON-safe dict embedded in the sink's ``log_header`` record
        (e.g. the run's ``RunConfig.to_dict()``) — what makes a recorded
        log self-describing enough to replay. Ignored without ``path``.

    When ``path`` is given the first line written is a ``log_header``
    record at ``seq 0`` carrying :data:`EVENTS_SCHEMA` /
    :data:`EVENTS_SCHEMA_VERSION` (and ``meta``);
    :func:`read_event_log` validates it so logs from older builds fail
    loudly instead of obscurely.
    """

    def __init__(
        self,
        run_id: str | None = None,
        *,
        capacity: int = 65536,
        path: str | None = None,
        clock: Callable[[], float] | None = None,
        enabled: bool = True,
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.run_id = run_id if run_id is not None else new_run_id()
        self.enabled = enabled
        self._clock = clock if clock is not None else default_clock
        self._lock = threading.Lock()
        self._ring: deque[dict[str, Any]] = deque(maxlen=max(1, capacity))
        self._folds: dict[str, list[Callable[[dict[str, Any]], None]]] = {}
        self._fold_keys: set[tuple[str, str | None]] = set()
        self._seq = 0
        self._trace: Any = None
        self._local = threading.local()
        self._path = path
        self._file = open(path, "w", encoding="utf-8") if path else None
        if self._file is not None:
            header: dict[str, Any] = {
                "kind": "log_header",
                "schema": EVENTS_SCHEMA,
                "schema_version": EVENTS_SCHEMA_VERSION,
                "run_id": self.run_id,
                "seq": 0,
                "t": self._clock(),
            }
            if meta:
                header["meta"] = meta
            self._file.write(json.dumps(header, default=str) + "\n")

    # ------------------------------------------------------------------
    # clock

    def set_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    # ------------------------------------------------------------------
    # trace context (repro.obs.spans)

    @property
    def trace_context(self) -> Any:
        """The active :class:`~repro.obs.spans.TraceContext`, or None."""
        return self._trace

    def set_trace_context(self, ctx: Any) -> None:
        """Stamp ``trace_id`` onto every subsequently emitted event.

        Set by the job runners from ``JobResources.trace`` (the serve
        daemon's execute-span context) and by worker processes from the
        traceparent carried in the dispatch batch header — so every
        event of a served job, on either side of the process boundary,
        joins the same distributed trace. ``None`` clears the context
        (a warm lane must not leak one job's trace onto the next).
        """
        self._trace = ctx

    # ------------------------------------------------------------------
    # cause context

    def current_cause(self) -> int | None:
        """Seq of the innermost active ``cause`` scope on this thread."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    @contextmanager
    def cause(self, seq: int | None) -> Iterator[None]:
        """Events emitted on this thread inside the scope default their
        ``cause`` to ``seq`` (innermost scope wins)."""
        if not self.enabled or seq is None:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(seq)
        try:
            yield
        finally:
            stack.pop()

    # ------------------------------------------------------------------
    # folds

    def fold(self, kind: str, fn: Callable[[dict[str, Any]], None], *,
             key: str | None = None) -> None:
        """Run ``fn(event)`` on every ``kind`` event :meth:`emit` records,
        in emission order under the log's lock (so a fold must not emit);
        ``seq`` is ``0`` while the log is disabled.

        A keyed fold registers once per log (a later one with the same
        kind and key is ignored): an owner that binds one log many times
        still counts each event once."""
        with self._lock:
            if (kind, key) in self._fold_keys:
                return
            if key is not None:
                self._fold_keys.add((kind, key))
            self._folds.setdefault(kind, []).append(fn)

    # ------------------------------------------------------------------
    # emission

    def emit(
        self,
        kind: str,
        *,
        task: str | None = None,
        version: int | None = None,
        cause: int | None = None,
        **data: Any,
    ) -> int:
        """Record one event and fold it; returns its seq (0 when disabled).

        ``cause`` falls back to the innermost :meth:`cause` scope active
        on the calling thread. ``None``-valued payload fields are dropped
        so the JSONL stays compact.
        """
        folds = self._folds.get(kind)
        if not self.enabled and folds is None:
            return 0
        if cause is None:
            cause = self.current_cause()
        event: dict[str, Any] = {"run_id": self.run_id, "kind": kind}
        if task is not None:
            event["task"] = task
        if version is not None:
            event["version"] = version
        if cause is not None:
            event["cause"] = cause
        for key, value in data.items():
            if value is not None:
                event[key] = value
        if self._trace is not None:
            event.setdefault("trace_id", self._trace.trace_id)
        with self._lock:
            if self.enabled:
                self._seq += 1
                event["seq"] = self._seq
                event["t"] = self._clock()
                self._ring.append(event)
                if self._file is not None:
                    self._file.write(json.dumps(event, default=str) + "\n")
            else:
                event["seq"], event["t"] = 0, self._clock()
            for fn in folds or ():
                fn(event)
        return event["seq"]

    def merge_worker(self, worker: int, worker_events: list[dict]) -> None:
        """Merge a worker process's event batch into this log, unfolded.

        Worker seqs are process-local, so each event gets a fresh
        coordinator seq (order preserved); ``cause`` references that
        point *within* the batch are remapped to the new seqs, ones that
        don't are dropped (they cannot resolve in this log). The original
        ordering survives as ``worker`` / ``worker_seq``; worker
        timestamps are kept verbatim and flagged ``clock="worker"``
        because the worker's monotonic clock shares no epoch with ours.
        """
        self._merge_foreign(worker_events, tags={"worker": worker},
                            seq_key="worker_seq")

    def merge_remote(self, origin: str, remote_events: list[dict]) -> None:
        """Merge a remote pool's event batch into this log, unfolded.

        Like :meth:`merge_worker`, but for a whole remote worker pool
        (see :mod:`repro.sre.executor_dist`): events arrive already
        aggregated across that pool's workers, so existing ``worker`` /
        ``worker_seq`` attribution is preserved rather than overwritten.
        The batch is tagged ``origin=<origin>`` (the pool address) and
        its foreign seqs survive as ``remote_seq``; a ``clock`` already
        stamped by the pool's own merge is kept.
        """
        self._merge_foreign(remote_events, tags={"origin": origin},
                            seq_key="remote_seq")

    def _merge_foreign(self, foreign: list[dict], *, tags: dict,
                       seq_key: str) -> None:
        if not self.enabled or not foreign:
            return
        with self._lock:
            remap: dict[int, int] = {}
            for src in foreign:
                self._seq += 1
                event = dict(src)
                old_seq = event.get("seq")
                if old_seq is not None:
                    remap[old_seq] = self._seq
                    event[seq_key] = old_seq
                old_cause = event.get("cause")
                if old_cause is not None:
                    if old_cause in remap:
                        event["cause"] = remap[old_cause]
                    else:
                        del event["cause"]
                event["seq"] = self._seq
                event["run_id"] = self.run_id
                event.update(tags)
                event.setdefault("clock", "worker")
                self._ring.append(event)
                if self._file is not None:
                    self._file.write(json.dumps(event, default=str) + "\n")

    # ------------------------------------------------------------------
    # access

    def events(self) -> list[dict[str, Any]]:
        """Snapshot of the ring (oldest first)."""
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def last_seq(self) -> int:
        return self._seq

    @property
    def path(self) -> str | None:
        return self._path

    def flush(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.flush()
                self._file.close()
                self._file = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# lineage helpers (used by `repro explain` and the tests)


def load_events_jsonl(path: str) -> list[dict[str, Any]]:
    """Load the *events* of an ``*.events.jsonl`` file (header skipped).

    Raw access with no schema validation: ``log_header`` records are
    dropped so pre-header logs and current ones read identically. Use
    :func:`read_event_log` when you need the header (replay does) or
    want version mismatches rejected loudly.
    """
    events: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                record = json.loads(line)
                if record.get("kind") != "log_header":
                    events.append(record)
    return events


def read_event_log(
    path: str, *, require_header: bool = True
) -> tuple[dict[str, Any] | None, list[dict[str, Any]]]:
    """Load and validate an event log; returns ``(header, events)``.

    The first record must be a ``log_header`` stamped by this build's
    :class:`EventLog` (see :data:`EVENTS_SCHEMA_VERSION`). Raises
    :class:`~repro.errors.EventSchemaError` when the header is missing
    (unless ``require_header=False``, for tools like ``repro explain``
    that degrade gracefully on old logs) or when the schema/version
    doesn't match what this build reads — the "log from another build"
    failure becomes one clear sentence instead of a KeyError three
    layers down.
    """
    with open(path, "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    if not records or records[0].get("kind") != "log_header":
        if require_header:
            raise EventSchemaError(
                f"{path}: no log_header record on line 1 — this log predates "
                f"schema v{EVENTS_SCHEMA_VERSION} (or was not written by an "
                "EventLog). Re-record it with this build, or use "
                "load_events_jsonl for raw access."
            )
        return None, [r for r in records if r.get("kind") != "log_header"]
    header = records[0]
    schema = header.get("schema")
    version = header.get("schema_version")
    if schema != EVENTS_SCHEMA:
        raise EventSchemaError(
            f"{path}: schema {schema!r} is not {EVENTS_SCHEMA!r} — "
            "not a repro event log"
        )
    if version != EVENTS_SCHEMA_VERSION:
        raise EventSchemaError(
            f"{path}: written with event schema v{version}, but this build "
            f"reads v{EVENTS_SCHEMA_VERSION} — re-record the run with this "
            "build (event kinds/fields changed meaning between versions)"
        )
    return header, records[1:]


def index_by_seq(events: list[dict[str, Any]]) -> dict[int, dict[str, Any]]:
    return {e["seq"]: e for e in events if "seq" in e}


def children_of(events: list[dict[str, Any]]) -> dict[int, list[dict[str, Any]]]:
    """Map each seq to the events it directly caused (in seq order)."""
    kids: dict[int, list[dict[str, Any]]] = {}
    for event in events:
        cause = event.get("cause")
        if cause is not None:
            kids.setdefault(cause, []).append(event)
    return kids


def walk_to_root(
    event: dict[str, Any], by_seq: dict[int, dict[str, Any]]
) -> list[dict[str, Any]]:
    """Follow ``cause`` edges up; returns the chain ending at the root.

    The chain starts with ``event`` itself and ends at the first event
    with no (resolvable) cause. Cycles cannot occur — causes always point
    at earlier seqs — but dangling causes (ring eviction) terminate the
    walk gracefully.
    """
    chain = [event]
    seen = {event.get("seq")}
    while True:
        cause = chain[-1].get("cause")
        if cause is None or cause not in by_seq or cause in seen:
            return chain
        parent = by_seq[cause]
        seen.add(cause)
        chain.append(parent)
