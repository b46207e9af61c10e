"""Observability: always-on metrics, snapshots and exporters.

This package is the runtime's accounting surface: *cheap, always-on*
counters, gauges and histograms, and one structured record of every task
and speculation decision, all of which work identically under the
simulated clock and the live (threads / process-pool) executors and can
be aggregated across process boundaries.

The pieces:

* :mod:`repro.obs.metrics` — the instruments (:class:`Counter`,
  :class:`Gauge`, :class:`Histogram`) and the named
  :class:`MetricsRegistry` that owns them. Each series is one value
  under one lock; :meth:`MetricsRegistry.merge_snapshot` folds a
  snapshot in (counters and histograms add, gauges take the max), which
  is how worker-process metrics reach the coordinator's registry.
* :mod:`repro.obs.exporters` — Prometheus text exposition and JSON
  snapshot rendering, plus :class:`PeriodicSnapshotWriter` for long runs.
* :mod:`repro.obs.events` — the flight recorder: an :class:`EventLog`
  ring of structured events with causal IDs, so speculation lineage
  (``spec_launch → check_fail → destroy_signal → task_abort*``) is a
  walkable graph (docs/flight-recorder.md).
* :mod:`repro.obs.traceview` — the run's timeline drawn from those
  events: Chrome trace-event JSON and an ASCII Gantt (``repro run
  --gantt / --trace-out``).
* :mod:`repro.obs.explain` / :mod:`repro.obs.top` — post-mortem rollback
  cascade reconstruction (`repro explain`) and the live text dashboard
  (`repro top`; with ``--serve`` it polls a live daemon's ``stats`` op).
* :mod:`repro.obs.anomaly` — threshold detectors (mis-speculation burst,
  ready-queue stall, payload-budget pressure, breaker flap, ...) feeding
  ``RunReport.warnings``.
* :mod:`repro.obs.spans` — distributed tracing for the serve path:
  W3C-style ``traceparent`` propagation, a :class:`Tracer` whose spans
  are written once, into the flight recorder (stage-latency histograms
  fold their ``span_end`` events), and span-tree assembly/rendering
  (docs/tracing.md).

Quickstart::

    from repro.obs import MetricsRegistry, to_prometheus_text

    reg = MetricsRegistry("demo")
    hits = reg.counter("cache_hits", "cache hits", labelnames=("tier",))
    hits.labels(tier="l1").inc()
    lat = reg.histogram("lookup_us", "lookup latency (µs)")
    lat.observe(12.5)
    print(to_prometheus_text(reg.snapshot()))

Every run started through :func:`repro.experiments.jobs.run_job` (or any
app's runner) carries a registry on ``report.metrics``; ``repro run
--metrics-out`` exports it from the command line.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_US,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
)
from repro.obs.exporters import (
    PeriodicSnapshotWriter,
    load_json_snapshot,
    to_json_snapshot,
    to_prometheus_text,
    write_metrics,
)
from repro.obs.events import (
    EVENTS_SCHEMA,
    EVENTS_SCHEMA_VERSION,
    EventLog,
    children_of,
    index_by_seq,
    load_events_jsonl,
    read_event_log,
    walk_to_root,
)
from repro.obs.anomaly import Anomaly, AnomalyThresholds, detect_anomalies, scan_run
from repro.obs.explain import build_cascades, explain_events, explain_path
from repro.obs.spans import (
    Span,
    TraceContext,
    Tracer,
    format_traceparent,
    parse_traceparent,
    render_span_tree,
    span_tree,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "histogram_quantile",
    "DEFAULT_LATENCY_BUCKETS_US",
    "PeriodicSnapshotWriter",
    "load_json_snapshot",
    "to_json_snapshot",
    "to_prometheus_text",
    "write_metrics",
    "EVENTS_SCHEMA",
    "EVENTS_SCHEMA_VERSION",
    "EventLog",
    "children_of",
    "index_by_seq",
    "load_events_jsonl",
    "read_event_log",
    "walk_to_root",
    "Anomaly",
    "AnomalyThresholds",
    "detect_anomalies",
    "scan_run",
    "build_cascades",
    "explain_events",
    "explain_path",
    "Span",
    "TraceContext",
    "Tracer",
    "format_traceparent",
    "parse_traceparent",
    "render_span_tree",
    "span_tree",
]
