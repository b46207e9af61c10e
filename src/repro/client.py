"""Client library for the `repro serve` daemon.

:class:`ServeClient` wraps one socket connection with the framed-JSON
protocol (:mod:`repro.serve.wire`) behind plain method calls::

    with ServeClient(port=port) as client:
        job = client.submit({"app": "kmeans", "n_blocks": 24},
                            tenant="alice")
        report = client.result(job, wait=True)
        print(report["output_sha256"])

A rejected submission raises :class:`JobRejected` carrying the
admission ``reason`` (``circuit_open`` / ``tenant_busy`` /
``tenant_bytes`` / ``queue_full`` / ``bad_config``) so callers can
implement backoff-and-retry against backpressure without string
matching. The connection is serialised by a lock — a ServeClient is
safe to share across threads, with requests interleaving whole frames.

Every frame carries a W3C-style ``traceparent`` header; :meth:`submit`
mints a fresh trace per job, so the daemon's stage spans, flight-recorder
events and worker-side ``worker_exec`` events all share that job's
trace id (:mod:`repro.obs.spans`). Fetch the assembled span tree with
:meth:`trace`.
"""

from __future__ import annotations

import socket
import threading

from repro.errors import ExperimentError
from repro.obs.spans import TraceContext
from repro.serve.wire import TRACEPARENT_KEY, recv_frame, send_frame, \
    set_nodelay

__all__ = ["JobRejected", "ServeClient", "ServeError"]


class ServeError(ExperimentError):
    """The daemon replied ``ok: false`` (and it wasn't an admission
    rejection), or the connection failed."""


class JobRejected(ServeError):
    """Admission control refused the submission."""

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(f"submission rejected ({reason}): {detail}")
        self.reason = reason


class ServeClient:
    """One connection to a serve daemon; context-manager friendly."""

    def __init__(self, host: str = "127.0.0.1", *, port: int,
                 timeout_s: float = 120.0) -> None:
        #: per-call reply deadline; a daemon that stops replying surfaces
        #: as a typed ServeError instead of wedging the caller (and every
        #: other thread sharing this client) in recv_frame forever.
        self.timeout_s = timeout_s
        self._sock = set_nodelay(socket.create_connection(
            (host, port), timeout=timeout_s))
        self._lock = threading.Lock()
        #: active trace context; re-minted per submit so each job gets
        #: its own trace id. Follow-up ops (block/result/...) reuse the
        #: last submit's context.
        self._trace = TraceContext.mint()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - defensive
            pass

    # ------------------------------------------------------------------
    def _call(self, req: dict, blobs: tuple[bytes, ...] = ()) -> dict:
        with self._lock:
            req.setdefault(TRACEPARENT_KEY, self._trace.to_traceparent())
            try:
                send_frame(self._sock, req, blobs=blobs)
                reply = recv_frame(self._sock)
            except TimeoutError:  # socket.timeout on the unbounded recv
                raise ServeError(
                    f"daemon timed out (no reply to {req.get('op')!r} "
                    f"within {self.timeout_s}s)") from None
        if reply is None:
            raise ServeError("daemon closed the connection")
        return reply

    def _checked(self, req: dict, blobs: tuple[bytes, ...] = ()) -> dict:
        reply = self._call(req, blobs)
        if not reply.get("ok"):
            reason = reply.get("reason")
            detail = str(reply.get("error", "unspecified"))
            if reason in ("circuit_open", "tenant_busy", "tenant_bytes",
                          "queue_full", "bad_config"):
                raise JobRejected(reason, detail)
            raise ServeError(detail)
        return reply

    # ------------------------------------------------------------------
    def ping(self) -> dict:
        return self._checked({"op": "ping"})

    def submit(self, config: dict, *, tenant: str = "default",
               workload: bytes | None = None) -> str:
        """Submit one job; returns its ``job_id``.

        ``config`` is a plain dict of :class:`RunConfig` keywords plus
        ``app``; ``workload`` ships custom input bytes (the frame's one
        blob) instead of a named synthetic workload.
        """
        self._trace = TraceContext.mint()  # one trace per job
        reply = self._checked({"op": "submit", "tenant": tenant,
                               "config": dict(config)},
                              () if workload is None else (workload,))
        return reply["job_id"]

    def send_block(self, job_id: str, index: int, data: bytes) -> None:
        """Stream one block to an ``io="live"`` job."""
        self._checked({"op": "block", "job_id": job_id, "index": index},
                      (data,))

    def close_stream(self, job_id: str) -> None:
        self._checked({"op": "close_stream", "job_id": job_id})

    def status(self, job_id: str) -> dict:
        return self._checked({"op": "status", "job_id": job_id})

    def result(self, job_id: str, *, wait: bool = True,
               timeout_s: float = 120.0) -> dict:
        """The job's report summary; raises ServeError on a failed job.

        Returns the ``report`` dict (label, outcome, ``output_sha256``,
        latency stats, extras) for a done job. ``wait=False`` raises if
        the job has not finished.
        """
        reply = self._checked({"op": "result", "job_id": job_id,
                               "wait": wait, "timeout_s": timeout_s})
        if reply.get("state") == "failed":
            raise ServeError(
                f"{job_id} failed: {reply.get('error', 'unknown error')}")
        if "report" not in reply:
            raise ServeError(f"{job_id} is still {reply.get('state')}; "
                             "pass wait=True or retry later")
        return reply["report"]

    def jobs(self) -> list[dict]:
        return self._checked({"op": "jobs"})["jobs"]

    def trace(self, job_id: str) -> dict:
        """A job's assembled trace: ``{"trace_id", "state", "spans"}``.

        ``spans`` is a flat list of span dicts (assemble a tree with
        :func:`repro.obs.spans.span_tree`); for a running job the open
        stage spans appear with ``t1_us`` null.
        """
        reply = self._checked({"op": "trace", "job_id": job_id})
        return {k: v for k, v in reply.items() if k != "ok"}

    def stats(self) -> dict:
        reply = self._checked({"op": "stats"})
        return {k: v for k, v in reply.items() if k != "ok"}

    def shutdown(self) -> None:
        """Ask the daemon to stop (acked before it goes down)."""
        self._checked({"op": "shutdown"})
