"""Spans and W3C-style trace-context propagation — the service trace spine.

Metrics answer *how much*, the flight recorder answers *why*; spans
answer **where the time went** for one request as it crosses the
client / daemon / worker-process boundaries. The model is deliberately
the W3C Trace Context one, cut down to what the serve path needs:

* a :class:`TraceContext` is ``(trace_id, span_id)`` — 16 + 8 random
  bytes rendered as lowercase hex — serialised as a ``traceparent``
  header string ``00-<trace_id>-<span_id>-01``;
* :class:`ServeClient <repro.client.ServeClient>` mints a fresh trace
  per submitted job and sends its ``traceparent`` on the submit frame
  (:data:`repro.serve.wire.TRACEPARENT_KEY`);
* the daemon adopts (or mints, for traceless clients) the context and
  opens one child :class:`Span` per job-lifecycle stage — admission,
  queue wait, lane lease, pipeline execution, live-block streaming,
  result render;
* the active execute-span context is stamped onto the job's
  :class:`~repro.obs.events.EventLog` (``set_trace_context``) and
  carried to worker processes in the dispatch batch header, so
  worker-side ``worker_exec`` events join the same trace.

Every finished span is written once, into the flight recorder, as
``span_start`` / ``span_end`` events whose ``cause`` edges hang child
spans off their parent's start — span trees walk with the same lineage
helpers as rollback cascades (:func:`~repro.obs.events.walk_to_root`),
and latency histograms fold the ``span_end`` events
(:meth:`~repro.obs.events.EventLog.fold`).

The tracer is deliberately tiny: span *storage* is the caller's
problem (the serve daemon appends finished spans to each job's
``spans`` list via the ``sink`` parameter), and there is no sampling —
a daemon runs few jobs per second and every one deserves a trace.
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.obs.events import EventLog, default_clock

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "format_traceparent",
    "parse_traceparent",
    "render_span_tree",
    "span_tree",
]

#: ``version-traceid-spanid-flags``; only version 00 and these exact
#: widths are produced or accepted (tolerant parse returns None on
#: anything else rather than guessing).
_TRACEPARENT = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$")


def _rand_hex(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class TraceContext:
    """One (trace, span) coordinate — what crosses a boundary."""

    trace_id: str  # 32 lowercase hex chars
    span_id: str   # 16 lowercase hex chars

    @classmethod
    def mint(cls) -> "TraceContext":
        """A brand-new trace with a fresh root span id."""
        return cls(trace_id=_rand_hex(16), span_id=_rand_hex(8))

    def child(self) -> "TraceContext":
        """Same trace, fresh span id — the context a child span gets."""
        return TraceContext(trace_id=self.trace_id, span_id=_rand_hex(8))

    def to_traceparent(self) -> str:
        return format_traceparent(self)


def format_traceparent(ctx: TraceContext) -> str:
    """Render the W3C-style header string (version 00, flags 01)."""
    return f"00-{ctx.trace_id}-{ctx.span_id}-01"


def parse_traceparent(header: object) -> TraceContext | None:
    """Tolerant inverse of :func:`format_traceparent`.

    Returns ``None`` for anything malformed — a traceless or garbage
    header must never fail a submit, it just starts a fresh trace.
    """
    if not isinstance(header, str):
        return None
    match = _TRACEPARENT.match(header.strip().lower())
    if match is None:
        return None
    return TraceContext(trace_id=match.group(1), span_id=match.group(2))


@dataclass
class Span:
    """One named, timed operation within a trace.

    ``t0_us`` / ``t1_us`` are on the tracer's clock (monotonic µs by
    default). Worker-side leaf spans synthesised from ``worker_exec``
    events carry ``clock="worker"`` in ``attrs`` because a worker's
    monotonic clock shares no epoch with the daemon's.
    """

    name: str
    context: TraceContext
    parent_id: str | None
    t0_us: float
    t1_us: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        return self.context.span_id

    @property
    def dur_us(self) -> float:
        """Duration in µs (0.0 while the span is still open)."""
        return (self.t1_us - self.t0_us) if self.t1_us is not None else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe record — what the ``trace`` op returns per span."""
        out: dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "t0_us": self.t0_us,
            "t1_us": self.t1_us,
            "dur_us": self.dur_us,
        }
        out.update(self.attrs)
        return out


class Tracer:
    """Opens and closes spans, recording each in the flight recorder
    (``span_start`` / ``span_end`` with causal edges).

    One tracer serves a whole daemon: it is thread-safe and keeps only
    the start-event seq of each *open* span (so a child's
    ``span_start`` can name its parent's as ``cause``); entries are
    dropped when the span ends.
    """

    def __init__(self, *, events: EventLog | None = None,
                 clock: Callable[[], float] | None = None) -> None:
        self._events = events
        self._clock = clock if clock is not None else default_clock
        self._lock = threading.Lock()
        self._start_seq: dict[str, int] = {}  # open span_id -> start seq

    def start(self, name: str, *,
              parent: "TraceContext | Span | None" = None,
              **attrs: Any) -> Span:
        """Open a span.

        ``parent`` may be a :class:`TraceContext` (e.g. the adopted
        submit context), another :class:`Span`, or ``None`` to mint a
        fresh trace. ``None``-valued attrs are dropped, mirroring
        :meth:`EventLog.emit`.
        """
        parent_ctx = parent.context if isinstance(parent, Span) else parent
        ctx = parent_ctx.child() if parent_ctx is not None \
            else TraceContext.mint()
        span = Span(name=name, context=ctx,
                    parent_id=parent_ctx.span_id if parent_ctx else None,
                    t0_us=self._clock(),
                    attrs={k: v for k, v in attrs.items() if v is not None})
        if self._events is not None:
            with self._lock:
                cause = self._start_seq.get(span.parent_id or "")
            seq = self._events.emit(
                "span_start", span=name, cause=cause,
                trace_id=ctx.trace_id, span_id=ctx.span_id,
                parent_span=span.parent_id, **span.attrs)
            with self._lock:
                self._start_seq[ctx.span_id] = seq
        return span

    def end(self, span: Span, *,
            sink: Callable[[dict[str, Any]], None] | None = None,
            **attrs: Any) -> Span:
        """Close a span; idempotent-unfriendly by design (end once).

        ``sink`` receives the finished span's :meth:`Span.to_dict` —
        the serve daemon passes each job's ``spans.append``. A latency
        histogram folds the ``span_end`` event (``dur_us`` plus attrs).
        """
        span.t1_us = self._clock()
        for key, value in attrs.items():
            if value is not None:
                span.attrs[key] = value
        if self._events is not None:
            with self._lock:
                cause = self._start_seq.pop(span.span_id, None)
            self._events.emit(
                "span_end", span=span.name, cause=cause,
                trace_id=span.trace_id, span_id=span.span_id,
                parent_span=span.parent_id, dur_us=span.dur_us,
                **span.attrs)
        if sink is not None:
            sink(span.to_dict())
        return span

    def span(self, name: str, *,
             parent: "TraceContext | Span | None" = None,
             sink: Callable[[dict[str, Any]], None] | None = None,
             **attrs: Any) -> "_SpanScope":
        """``with tracer.span("admission", parent=ctx) as s: ...``"""
        return _SpanScope(self, name, parent, sink, attrs)


class _SpanScope:
    """Context manager wrapper for :meth:`Tracer.span`."""

    def __init__(self, tracer: Tracer, name: str,
                 parent: TraceContext | Span | None,
                 sink: Callable[[dict[str, Any]], None] | None,
                 attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._sink = sink
        self._attrs = attrs
        self.span: Span | None = None

    def __enter__(self) -> Span:
        self.span = self._tracer.start(self._name, parent=self._parent,
                                       **self._attrs)
        return self.span

    def __exit__(self, exc_type: object, *exc: object) -> None:
        self._tracer.end(self.span, sink=self._sink,
                         error=repr(exc[0]) if exc_type is not None
                         else None)


def span_tree(spans: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Assemble flat span dicts into root trees (``children`` lists).

    Spans whose ``parent_id`` is unknown (the submit-context root lives
    client-side, and worker-clock leaves can outlive a truncated list)
    become roots themselves — a partial trace still renders. Children
    keep list order, which is completion order for the serve daemon.
    """
    nodes = [dict(s, children=[]) for s in spans]
    by_id = {n["span_id"]: n for n in nodes if n.get("span_id")}
    roots: list[dict[str, Any]] = []
    for node in nodes:
        parent = by_id.get(node.get("parent_id"))
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    return roots


def render_span_tree(spans: list[dict[str, Any]]) -> Iterator[str]:
    """Text lines for a span list — `repro trace`'s output."""
    def walk(node: dict[str, Any], depth: int) -> Iterator[str]:
        dur = node.get("dur_us") or 0.0
        extras = [f"{k}={node[k]}" for k in
                  ("tenant", "outcome", "state", "status", "worker", "task")
                  if node.get(k) is not None]
        tail = ("  [" + " ".join(extras) + "]") if extras else ""
        yield f"{'  ' * depth}{node['name']:<12} {dur:12,.0f} µs{tail}"
        for child in node.get("children", []):
            yield from walk(child, depth + 1)

    for root in span_tree(spans):
        yield from walk(root, 0)
