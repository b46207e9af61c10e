"""Long-lived speculation service: the `repro serve` daemon.

One process keeps the expensive substrate warm across jobs — worker
pools (:class:`~repro.sre.executor_procs.WorkerSupervisor` lanes),
shared-memory arenas (:class:`~repro.sre.shm.BlockStore`) and the
daemon's metrics registry — while tenants submit huffman / filter /
kmeans jobs over a local socket and get back the same
:class:`~repro.experiments.jobs.RunReport` summary a one-shot run
produces, byte-identical output digest included.

Layers (see docs/service.md):

* :mod:`repro.serve.wire` — length-prefixed JSON framing.
* :mod:`repro.serve.admission` — per-tenant bulkheads, queue-depth
  admission control, and the crash circuit breaker.
* :mod:`repro.serve.warm` — warm worker-pool lanes keyed by pool
  signature, leased to jobs and kept running between them.
* :mod:`repro.serve.server` — the socket server, job table and job
  worker threads.
* :mod:`repro.serve.settings` — the knobs of this daemon and of
  `repro worker-pool`.

The package imports none of its modules, so the CLI parser (which reads
the settings) and the worker pool (which shares the wire framing) never
load the server. The client side lives in :mod:`repro.client`.
"""
