"""The `repro serve` daemon: socket server, job table, job workers.

One :class:`SpeculationServer` owns the warm substrate — a
:class:`~repro.serve.warm.LanePool` of started worker supervisors, one
shared :class:`~repro.sre.shm.BlockStore` arena set, and the daemon
metrics registry / flight recorder — and runs submitted jobs through the
unified :func:`repro.experiments.jobs.run_job` seam, so a served job is
*the same code path* as a one-shot run and must produce the same
``output_sha256``.

Protocol (see :mod:`repro.serve.wire` for framing): each request frame
carries ``op`` plus op-specific keys, each gets exactly one reply frame.

=============  =====================================================
op             meaning
=============  =====================================================
``ping``       liveness + daemon identity
``submit``     admit one job (``tenant``, ``config``); replies with
               ``job_id`` or a rejection ``reason`` (one of
               ``circuit_open`` / ``tenant_busy`` / ``tenant_bytes``
               / ``queue_full`` / ``bad_config``)
``block``      one streamed block for an ``io="live"`` job
``close_stream``  end of a live job's block stream
``status``     non-blocking job state
``result``     job state; ``wait=true`` blocks up to ``timeout_s``
``jobs``       the job table
``stats``      admission, breaker, lane, store, job-table and metrics
               snapshot plus anomaly warnings (`repro top --serve`
               polls this)
``trace``      a job's assembled distributed trace (span list)
``shutdown``   ack, then stop the daemon
=============  =====================================================

Tracing: a submit may carry a ``traceparent`` header
(:data:`repro.serve.wire.TRACEPARENT_KEY`); the daemon adopts it (or
mints a fresh context) and opens one child span per lifecycle stage —
admission, queue, lane lease, execute, live-block stream, result —
whose ``span_end`` events the ``serve_job_stage_us`` histograms fold.
The execute span's context rides into the runner via
``JobResources.trace`` and onward to worker processes in dispatch batch
headers, so worker-side ``worker_exec`` events join the same trace and
come back as worker-clock leaf spans. See docs/tracing.md.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ExperimentError, TransportError
from repro.experiments.config import RunConfig
from repro.experiments.jobs import JobResources, RunReport, run_job
from repro.obs.anomaly import (AnomalyThresholds, detect_anomalies,
                               report_anomalies)
from repro.obs.events import EventLog
from repro.obs.exporters import PeriodicSnapshotWriter
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, TraceContext, Tracer, parse_traceparent
from repro.serve.admission import AdmissionController
from repro.serve.settings import ServeSettings
from repro.serve.warm import LanePool, WarmLane
from repro.serve.wire import (BLOBS_KEY, TRACEPARENT_KEY, close_socket,
                              recv_frame, send_frame, set_nodelay)
from repro.sre.executor_procs import ProcessExecutor
from repro.sre.runtime import Runtime
from repro.sre.shm import BlockStore

__all__ = ["Job", "ServeSettings", "SpeculationServer"]

_EOF = object()  # live-stream terminator

#: stage-latency bucket bounds (µs): admission is tens of µs, a cold
#: procs spawn is hundreds of ms, a full job run is seconds — one
#: log-spaced ladder covers all three regimes.
_STAGE_BUCKETS_US = (100.0, 300.0, 1_000.0, 3_000.0, 10_000.0, 30_000.0,
                     100_000.0, 300_000.0, 1e6, 3e6, 1e7, 3e7)


@dataclass
class Job:
    """One submitted job's row in the table."""

    id: str
    tenant: str
    config: RunConfig
    est_bytes: int
    state: str = "queued"  # queued -> running -> done | failed
    submitted_mono: float = 0.0
    started_mono: float = 0.0
    finished_mono: float = 0.0
    error: str | None = None
    summary: dict | None = None
    metrics: MetricsRegistry | None = None
    done: threading.Event = field(default_factory=threading.Event)
    stream_q: "queue.Queue | None" = None
    stream_closed: bool = False
    #: adopted (or daemon-minted) submit trace context — the job span's
    #: parent; the whole row's events and spans share its trace_id.
    trace: TraceContext | None = None
    job_span: Span | None = None
    queue_span: Span | None = None
    stream_span: Span | None = None
    #: finished span dicts in completion order — the ``trace`` op payload.
    spans: list = field(default_factory=list)

    @property
    def trace_id(self) -> str | None:
        return self.job_span.trace_id if self.job_span is not None else None

    def row(self) -> dict:
        """JSON-safe table row (status / jobs ops)."""
        out = {
            "job_id": self.id,
            "tenant": self.tenant,
            "app": self.config.app,
            "state": self.state,
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.state in ("done", "failed") and self.finished_mono:
            out["latency_s"] = round(
                self.finished_mono - self.submitted_mono, 6)
        if self.error is not None:
            out["error"] = self.error
        return out


def _json_safe(value: Any) -> Any:
    """Recursively coerce report extras into JSON-representable types."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _summarize(report: RunReport) -> dict:
    """The slice of a RunReport that crosses the wire.

    Full traces / metric registries stay daemon-side (export them via
    ``metrics_out`` / ``events_out`` in the job config); the summary
    carries everything the byte-identity and latency comparisons need.
    """
    return _json_safe({
        "label": report.label,
        "app": report.app,
        "outcome": report.result.outcome,
        "output_sha256": report.output_sha256,
        "roundtrip_ok": report.roundtrip_ok,
        "avg_latency": report.avg_latency,
        "completion_time": report.completion_time,
        "utilisation": report.utilisation,
        "policy": report.policy,
        "workers": report.workers,
        "platform": report.platform_name,
        "warnings": report.warnings or [],
        "extras": report.extras,
    })


class SpeculationServer:
    """The daemon. ``start()`` binds and spins threads; ``stop()`` tears
    everything down (lanes harvested, arenas unlinked, sinks flushed)."""

    def __init__(self, settings: ServeSettings | None = None) -> None:
        self.settings = settings or ServeSettings()
        s = self.settings
        self.metrics = MetricsRegistry()
        self.events = EventLog(path=s.events_out,
                               meta={"app": "serve"})
        #: daemon-side runtime: the home for lane supervisors between
        #: jobs and the registry serve_* instruments live on.
        self.runtime = Runtime(metrics=self.metrics, events=self.events,
                               track_memory=False)
        self.admission = AdmissionController(
            max_tenant_jobs=s.max_tenant_jobs,
            max_tenant_bytes=s.max_tenant_bytes,
            queue_limit=s.queue_limit,
            breaker_threshold=s.breaker_threshold,
            breaker_cooldown_s=s.breaker_cooldown_s)
        self.lanes = LanePool(home_runtime=self.runtime,
                              max_lanes=s.max_lanes)
        #: warm shm arenas, shared across jobs and tenants (per-tenant
        #: *byte budgets* bound each tenant's slice); jobs with
        #: ``transport="shm"`` borrow it via JobResources.store and the
        #: runner leaves it open.
        self.store = BlockStore(metrics=self.metrics, events=self.events)
        m = self.metrics
        submitted = m.counter(
            "serve_jobs_submitted", "jobs accepted into the table",
            labelnames=("tenant", "app"))
        rejected = m.counter(
            "serve_jobs_rejected", "submissions refused at admission",
            labelnames=("tenant", "reason"))
        finished = m.counter(
            "serve_jobs_finished", "jobs that reached a terminal state",
            labelnames=("tenant", "app", "state"))
        breaker_opens = m.counter(
            "serve_breaker_opens", "tenant circuit-breaker open transitions",
            labelnames=("tenant",))
        stage_us = m.histogram(
            "serve_job_stage_us",
            "per-stage job latency (admission/queue/lane_lease/execute/"
            "stream/result)",
            labelnames=("stage", "tenant"), buckets=_STAGE_BUCKETS_US)
        lane_lease_us = m.histogram(
            "serve_lane_lease_us", "warm-lane lease latency by outcome",
            labelnames=("outcome",), buckets=_STAGE_BUCKETS_US)

        def span_ended(e: dict[str, Any]) -> None:
            if e["span"] == "job":
                return  # every other daemon span is one lifecycle stage
            stage_us.labels(stage=e["span"], tenant=e["tenant"]).observe(
                e["dur_us"])
            if e["span"] == "lane_lease":
                lane_lease_us.labels(outcome=e["outcome"]).observe(
                    e["dur_us"])

        # Folds (docs/flight-recorder.md): each job fact is written once,
        # as its event, and each stage latency once, as its span_end.
        for kind, fn in {
            "job_submit": lambda e: submitted.labels(
                tenant=e["tenant"], app=e["app"]).inc(),
            "job_reject": lambda e: rejected.labels(
                tenant=e["tenant"], reason=e["reason"]).inc(),
            "job_done": lambda e: finished.labels(
                tenant=e["tenant"], app=e["app"], state="done").inc(),
            "job_failed": lambda e: finished.labels(
                tenant=e["tenant"], app=e["app"], state="failed").inc(),
            "breaker_open": lambda e: breaker_opens.labels(
                tenant=e["tenant"]).inc(),
            "span_end": span_ended,
        }.items():
            self.events.fold(kind, fn)
        #: the daemon-wide tracer: span_start/span_end into self.events.
        self.tracer = Tracer(events=self.events)
        #: bounded ring of anomaly warnings the stats op surfaces.
        self._warnings: deque = deque(maxlen=32)
        self._snapshot_writer: PeriodicSnapshotWriter | None = None
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._job_seq = 0
        self._run_q: "queue.Queue[Job | None]" = queue.Queue()
        self._threads: list[threading.Thread] = []
        #: live connections -> their handler threads; stop() closes every
        #: socket here so no handler outlives the daemon.
        self._conns: dict[socket.socket, threading.Thread] = {}
        self._conns_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._started_mono = 0.0
        self.shutdown_requested = threading.Event()
        self._stopping = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._listener is None:
            raise ExperimentError("server is not started")
        return self._listener.getsockname()[1]

    def start(self) -> "SpeculationServer":
        s = self.settings
        self._listener = socket.create_server(
            (s.host, s.port), backlog=16, reuse_port=False)
        self._listener.settimeout(0.2)  # accept loop polls the stop flag
        self._started_mono = time.monotonic()
        for i in range(s.job_workers):
            t = threading.Thread(target=self._job_worker,
                                 name=f"serve-job-{i}", daemon=True)
            t.start()
            self._threads.append(t)
        t = threading.Thread(target=self._accept_loop,
                             name="serve-accept", daemon=True)
        t.start()
        self._threads.append(t)
        self.events.emit("serve_start", host=s.host, port=self.port,
                         job_workers=s.job_workers)
        if s.metrics_out:
            self._snapshot_writer = PeriodicSnapshotWriter(
                self.metrics, s.metrics_out,
                interval_s=s.metrics_interval_s).start()
        if s.port_file:
            with open(s.port_file, "w", encoding="utf-8") as fh:
                fh.write(str(self.port))
        return self

    def stop(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        self.shutdown_requested.set()
        for _ in range(self.settings.job_workers):
            self._run_q.put(None)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - defensive
                pass
        # Wake every live handler: a silent peer would otherwise pin its
        # thread in recv_frame past shutdown.
        with self._conns_lock:
            conns = list(self._conns.items())
        for conn, _t in conns:
            close_socket(conn)
        for t in self._threads + [t for _c, t in conns]:
            t.join(timeout=10.0)
        # Lanes first (their harvest emits into daemon metrics/events),
        # then arenas, then the event sink — mirror run_app's ordering.
        # The snapshot writer stops after both so its final dump carries
        # the lane-harvest counters.
        try:
            self.lanes.close()
        finally:
            try:
                self.store.close()
            finally:
                if self._snapshot_writer is not None:
                    self._snapshot_writer.stop()  # one final snapshot
                self.events.emit("serve_stop")
                self.events.close()

    def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` op (or KeyboardInterrupt), then stop."""
        try:
            while not self.shutdown_requested.wait(timeout=0.5):
                pass
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        self.stop()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self.shutdown_requested.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:  # listener closed under us: shutting down
                return
            set_nodelay(conn)
            conn.settimeout(self.settings.conn_idle_timeout_s)
            t = threading.Thread(target=self._serve_conn, args=(conn,),
                                 name="serve-conn", daemon=True)
            with self._conns_lock:
                self._conns[conn] = t
            t.start()

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            with conn:
                self._serve_conn_loop(conn)
        finally:
            with self._conns_lock:
                self._conns.pop(conn, None)

    def _serve_conn_loop(self, conn: socket.socket) -> None:
        while True:
            try:
                req = recv_frame(conn)
            except socket.timeout:
                self.events.emit("serve_conn_closed", reason="idle_timeout")
                return  # idle peer evicted (conn_idle_timeout_s)
            except (TransportError, OSError):
                return  # peer sent garbage, died mid-frame, or stop()
                # closed the socket under us
            if req is None:
                return
            self._serve_req(conn, req)
            if req.get("op") == "shutdown":
                self.shutdown_requested.set()
                return

    def _serve_req(self, conn: socket.socket, req: dict) -> None:
        try:
            reply = self._handle(req)
        except Exception as exc:  # noqa: BLE001 - reply, don't die
            reply = {"ok": False, "error": f"{type(exc).__name__}: "
                                           f"{exc}"}
        try:
            send_frame(conn, reply)
        except (TransportError, OSError):
            pass

    def _handle(self, req: dict) -> dict:
        op = req.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) \
            else None
        if handler is None or (isinstance(op, str) and op.startswith("_")):
            return {"ok": False, "error": f"unknown op {op!r}"}
        return handler(req)

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    def _op_ping(self, req: dict) -> dict:
        import os

        return {"ok": True, "op": "ping", "pid": os.getpid(),
                "uptime_s": round(time.monotonic() - self._started_mono, 3)}

    def _op_submit(self, req: dict) -> dict:
        tenant = str(req.get("tenant") or "default")
        # Adopt the client's trace context (tolerant: garbage or absence
        # mints a fresh trace) and open the job span right away — it
        # covers submit-to-done, and every stage span hangs off it.
        root = parse_traceparent(req.get(TRACEPARENT_KEY)) \
            or TraceContext.mint()
        job_span = self.tracer.start("job", parent=root, tenant=tenant)
        adm_span = self.tracer.start("admission", parent=job_span,
                                     tenant=tenant)
        raw = req.get("config")
        if not isinstance(raw, dict):
            self._reject_spans(adm_span, job_span, "bad_config")
            return {"ok": False, "reason": "bad_config",
                    "error": "submit requires a 'config' object",
                    "trace_id": job_span.trace_id}
        raw = dict(raw)
        app = str(raw.pop("app", "huffman"))
        blobs = req.get(BLOBS_KEY, [])
        try:
            if len(blobs) > 1:
                raise ExperimentError(
                    f"submit carries at most one workload blob, "
                    f"got {len(blobs)}")
            if blobs:
                raw["workload"] = blobs[0]
            cfg = RunConfig.for_app(app, **raw)
        except (ExperimentError, TypeError) as exc:
            self.events.emit("job_reject", tenant=tenant,
                             reason="bad_config", detail=str(exc),
                             trace_id=job_span.trace_id)
            self._reject_spans(adm_span, job_span, "bad_config")
            return {"ok": False, "reason": "bad_config", "error": str(exc),
                    "trace_id": job_span.trace_id}
        est_bytes = self._estimate_bytes(cfg)
        reason = self.admission.admit(tenant, est_bytes)
        if reason is not None:
            self.events.emit("job_reject", tenant=tenant, reason=reason,
                             app=cfg.app, est_bytes=est_bytes,
                             trace_id=job_span.trace_id)
            self._reject_spans(adm_span, job_span, reason)
            return {"ok": False, "reason": reason,
                    "error": f"admission refused: {reason}",
                    "trace_id": job_span.trace_id}
        with self._lock:
            self._job_seq += 1
            job = Job(id=f"job-{self._job_seq}", tenant=tenant, config=cfg,
                      est_bytes=est_bytes,
                      submitted_mono=time.monotonic(),
                      trace=root, job_span=job_span)
            if isinstance(cfg.io, str) and cfg.io == "live":
                job.stream_q = queue.Queue()
            self._jobs[job.id] = job
        self.tracer.end(adm_span, sink=job.spans.append, outcome="accepted",
                        job=job.id)
        # Queue wait starts at acceptance; _run_one closes it.
        job.queue_span = self.tracer.start("queue", parent=job_span,
                                           tenant=tenant, job=job.id)
        self.events.emit("job_submit", tenant=tenant, app=cfg.app,
                         job=job.id, est_bytes=est_bytes,
                         trace_id=job_span.trace_id)
        self._run_q.put(job)
        return {"ok": True, "job_id": job.id,
                "trace_id": job_span.trace_id}

    def _reject_spans(self, adm_span: Span, job_span: Span,
                      reason: str) -> None:
        """Close submit-path spans for a rejected submission.

        No Job row exists, so there is no sink — the spans live on in
        the flight recorder and the admission-stage histogram only.
        """
        self.tracer.end(adm_span, outcome=reason)
        self.tracer.end(job_span, state="rejected", outcome=reason)

    @staticmethod
    def _estimate_bytes(cfg: RunConfig) -> int:
        """Payload-byte estimate the tenant bulkhead charges."""
        if isinstance(cfg.workload, (bytes, bytearray)):
            return len(cfg.workload)
        if cfg.n_blocks is not None:
            return int(cfg.n_blocks) * int(cfg.block_size)
        return 0

    def _get_job(self, req: dict) -> Job | None:
        job_id = req.get("job_id")
        with self._lock:
            return self._jobs.get(job_id) if isinstance(job_id, str) else None

    def _op_block(self, req: dict) -> dict:
        job = self._get_job(req)
        if job is None:
            return {"ok": False, "reason": "unknown_job",
                    "error": f"unknown job {req.get('job_id')!r}"}
        if job.stream_q is None:
            return {"ok": False, "error": f"{job.id} is not a live-stream "
                                          "job (io != 'live')"}
        if job.stream_closed or job.done.is_set():
            return {"ok": False, "error": f"{job.id} stream already closed"}
        blobs = req.get(BLOBS_KEY, [])
        if len(blobs) != 1:
            return {"ok": False, "error": f"block needs exactly one data "
                                          f"blob, got {len(blobs)}"}
        data = blobs[0]
        if job.stream_span is None and job.job_span is not None:
            # The stream stage runs from the first block to close_stream.
            job.stream_span = self.tracer.start(
                "stream", parent=job.job_span, tenant=job.tenant,
                job=job.id)
        job.stream_q.put(data)
        return {"ok": True, "job_id": job.id, "index": req.get("index")}

    def _op_close_stream(self, req: dict) -> dict:
        job = self._get_job(req)
        if job is None:
            return {"ok": False, "reason": "unknown_job",
                    "error": f"unknown job {req.get('job_id')!r}"}
        if job.stream_q is None:
            return {"ok": False, "error": f"{job.id} is not a live-stream job"}
        if not job.stream_closed:
            job.stream_closed = True
            if job.stream_span is not None and job.stream_span.t1_us is None:
                self.tracer.end(job.stream_span, sink=job.spans.append)
            job.stream_q.put(_EOF)
        return {"ok": True, "job_id": job.id}

    def _op_status(self, req: dict) -> dict:
        job = self._get_job(req)
        if job is None:
            return {"ok": False, "reason": "unknown_job",
                    "error": f"unknown job {req.get('job_id')!r}"}
        return {"ok": True, **job.row()}

    def _op_result(self, req: dict) -> dict:
        job = self._get_job(req)
        if job is None:
            return {"ok": False, "reason": "unknown_job",
                    "error": f"unknown job {req.get('job_id')!r}"}
        if req.get("wait"):
            timeout = float(req.get("timeout_s", 60.0))
            if not job.done.wait(timeout=timeout):
                return {"ok": False, "reason": "timeout",
                        "error": f"{job.id} still {job.state} after "
                                 f"{timeout}s", **job.row()}
        out = {"ok": True, **job.row()}
        if job.summary is not None:
            out["report"] = job.summary
        return out

    def _op_jobs(self, req: dict) -> dict:
        with self._lock:
            rows = [j.row() for j in self._jobs.values()]
        return {"ok": True, "jobs": rows}

    def _op_stats(self, req: dict) -> dict:
        with self._lock:
            states: dict[str, int] = {}
            for j in self._jobs.values():
                states[j.state] = states.get(j.state, 0) + 1
        return {"ok": True,
                "uptime_s": round(time.monotonic() - self._started_mono, 3),
                "jobs": states,
                "admission": self.admission.stats(),
                "lanes": self.lanes.stats(),
                "store": {"live_refs": self.store.live_refs,
                          "live_segments": self.store.live_segments},
                "metrics": self.metrics.snapshot(),
                "warnings": list(self._warnings)}

    def _op_trace(self, req: dict) -> dict:
        """A job's assembled distributed trace.

        Finished spans come from the job's sink list; for a still-running
        job the open stage spans ride along too (``t1_us`` null), so a
        live trace renders partially instead of empty. Worker-clock
        leaves sort last — their timestamps share no epoch with the
        daemon's.
        """
        job = self._get_job(req)
        if job is None:
            return {"ok": False, "reason": "unknown_job",
                    "error": f"unknown job {req.get('job_id')!r}"}
        spans = list(job.spans)
        seen = {s.get("span_id") for s in spans}
        for open_span in (job.job_span, job.queue_span, job.stream_span):
            if open_span is not None and open_span.span_id not in seen:
                spans.append(open_span.to_dict())
        spans.sort(key=lambda s: (s.get("clock") == "worker",
                                  s.get("t0_us") or 0.0))
        return {"ok": True, "job_id": job.id, "state": job.state,
                "tenant": job.tenant, "trace_id": job.trace_id,
                "spans": spans}

    def _op_shutdown(self, req: dict) -> dict:
        self.events.emit("serve_shutdown_requested")
        return {"ok": True, "op": "shutdown"}

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------
    def _job_worker(self) -> None:
        while True:
            job = self._run_q.get()  # bounded: stop() queues a None per worker
            if job is None:
                return
            self._run_one(job)

    def _stream_source(self, job: Job):
        declared = job.config.n_blocks or 0
        for _ in range(declared):
            try:
                item = job.stream_q.get(timeout=self.settings.stream_timeout_s)
            except queue.Empty:
                raise ExperimentError(
                    f"{job.id}: no streamed block for "
                    f"{self.settings.stream_timeout_s}s") from None
            if item is _EOF:
                return
            yield item

    def _run_one(self, job: Job) -> None:
        cfg = job.config
        tenant = job.tenant
        job.state = "running"
        job.started_mono = time.monotonic()
        if job.queue_span is not None:
            self.tracer.end(job.queue_span, sink=job.spans.append)
        self.events.emit("job_start", tenant=tenant, app=cfg.app,
                         job=job.id, trace_id=job.trace_id,
                         queued_s=round(job.started_mono
                                        - job.submitted_mono, 6))
        registry = MetricsRegistry()
        job.metrics = registry
        lane: WarmLane | None = None
        crash = False
        try:
            resources = JobResources()
            if cfg.transport == "shm":
                resources.store = self.store
            if job.stream_q is not None:
                resources.block_source = self._stream_source(job)
            if cfg.executor == "procs":
                lease_span = self.tracer.start("lane_lease",
                                               parent=job.job_span,
                                               tenant=tenant, job=job.id)
                workers = cfg.workers if cfg.workers is not None else 4
                lane = self.lanes.lease(job.tenant, workers, cfg.fault_plan)
                # jobs_served counts this lease already, so >1 means the
                # lane's workers were spawned by an earlier job: warm.
                outcome = "warm" if lane is not None \
                    and lane.jobs_served > 1 else "cold"
                if lane is not None:
                    resources.executor_factory = self._factory(cfg, lane)
                self.tracer.end(lease_span, sink=job.spans.append,
                                outcome=outcome)
            exec_span = self.tracer.start("execute", parent=job.job_span,
                                          tenant=tenant, job=job.id,
                                          app=cfg.app)
            # The runner stamps this context onto the job's event log;
            # dispatch batch headers carry it on to worker processes.
            resources.trace = exec_span.context
            try:
                report = run_job(cfg, metrics=registry, resources=resources)
            finally:
                self.tracer.end(exec_span, sink=job.spans.append)
            result_span = self.tracer.start("result", parent=job.job_span,
                                            tenant=tenant, job=job.id)
            try:
                self._collect_worker_spans(job, exec_span, report)
                job.summary = _summarize(report)
                job.state = "done"
            finally:
                self.tracer.end(result_span, sink=job.spans.append)
        except Exception as exc:  # noqa: BLE001 - job fails, daemon lives
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = "failed"
            crash = self._looks_like_crash(registry)
        finally:
            job.finished_mono = time.monotonic()
            if job.stream_span is not None and job.stream_span.t1_us is None:
                # Failed live job: the client never sent close_stream.
                self.tracer.end(job.stream_span, sink=job.spans.append)
            if lane is not None:
                self.lanes.release(lane, poisoned=crash)
            before = self.admission.breaker_state(job.tenant)
            self.admission.release(job.tenant, job.est_bytes,
                                   crash=crash, success=job.state == "done")
            after = self.admission.breaker_state(job.tenant)
            if crash and after == "open" and before != "open":
                self.events.emit("breaker_open", tenant=job.tenant,
                                 job=job.id, trace_id=job.trace_id)
                self._note_breaker_open(job.tenant)
            self.events.emit("job_done" if job.state == "done"
                             else "job_failed",
                             tenant=job.tenant, app=cfg.app, job=job.id,
                             error=job.error, trace_id=job.trace_id,
                             run_s=round(job.finished_mono
                                         - job.started_mono, 6))
            if job.job_span is not None:
                self.tracer.end(job.job_span, sink=job.spans.append,
                                state=job.state)
            job.done.set()

    #: worker leaf spans kept per job — enough to see every worker's
    #: share without letting a 10k-block job bloat the trace payload.
    _WORKER_SPAN_CAP = 128

    def _collect_worker_spans(self, job: Job, parent: Span,
                              report: RunReport) -> None:
        """Turn merged ``worker_exec`` events into worker-clock leaves.

        Worker events carry the trace id stamped from the dispatch batch
        header; here they become children of the execute span so the
        assembled tree shows daemon stages *and* per-payload worker body
        time. A worker's monotonic clock shares no epoch with the
        daemon's, so each leaf is tagged ``clock="worker"`` and exporters
        lay those out in their own lane. Overflow past the cap is
        recorded, never silent.
        """
        if report.events is None:
            return
        kept = 0
        dropped = 0
        for ev in report.events.events():
            if ev.get("kind") != "worker_exec":
                continue
            if ev.get("trace_id") != parent.trace_id:
                continue  # a previous job's straggler, harvested late
            if kept >= self._WORKER_SPAN_CAP:
                dropped += 1
                continue
            kept += 1
            t1 = float(ev.get("t_us", 0.0))
            dur = float(ev.get("dur_us", 0.0))
            leaf = {
                "name": "worker_exec",
                "trace_id": parent.trace_id,
                "span_id": f"worker-{ev.get('worker', '?')}-"
                           f"{ev.get('seq', kept)}",
                "parent_id": parent.span_id,
                "t0_us": t1 - dur,
                "t1_us": t1,
                "dur_us": dur,
                "clock": "worker",
            }
            for key in ("worker", "status", "task"):
                if ev.get(key) is not None:
                    leaf[key] = ev[key]
            job.spans.append(leaf)
        if dropped:
            self.events.emit("trace_spans_dropped", job=job.id,
                             trace_id=parent.trace_id, kept=kept,
                             dropped=dropped)

    def _note_breaker_open(self, tenant: str) -> None:
        """Live breaker-flap check: the anomaly module's detector over
        this tenant's ``breaker_open`` events in the flap window ending
        at the newest one. A finding is emitted as
        ``anomaly_breaker_flap`` and surfaces in the stats op."""
        opens = [e for e in self.events.events()
                 if e["kind"] == "breaker_open" and e["tenant"] == tenant]
        since = opens[-1]["t"] - AnomalyThresholds().flap_window_us
        self._warnings.extend(report_anomalies(self.events, detect_anomalies(
            [e for e in opens if e["t"] >= since])))

    def _factory(self, cfg: RunConfig, lane: WarmLane):
        """Executor factory closing over a leased warm lane."""
        store = self.store if cfg.transport == "shm" else None

        def build(runtime: Runtime) -> ProcessExecutor:
            return ProcessExecutor(
                runtime,
                policy=cfg.policy if cfg.policy != "nonspec"
                else "conservative",
                workers=lane.workers,
                supervisor=lane.supervisor,
                store=store,
                dispatch_timeout_s=cfg.dispatch_timeout_s,
            )

        return build

    @staticmethod
    def _looks_like_crash(registry: MetricsRegistry) -> bool:
        """Did this job's failure involve killing workers?

        Breaker food is crash-type failure only: the job's own registry
        shows worker deaths (``procs_worker_crashes``) or tasks
        quarantined after repeated deaths. A clean ExperimentError (bad
        geometry, failed verification) never trips the breaker.
        """
        crashes = registry.get("procs_worker_crashes")
        if crashes is not None and any(
                s["value"] > 0 for s in crashes.snapshot_series()):
            return True
        quarantined = registry.get("procs_tasks_quarantined")
        return quarantined is not None and any(
            s["value"] > 0 for s in quarantined.snapshot_series())
