"""The benchmark's two workloads, the passes they are made of, and the
serve leg of the traced run.

* ``stream-txt`` — open loop: txt blocks released on an absolute schedule
  into ``run_huffman(io="live")`` on procs + shm at the paper's socket
  geometry. Speculation never rolls back on txt, so this times the
  kernels, dispatch and the shm path with the speculation layer idle.
* ``batch-pdf-dist`` — batch: every pdf block is available at t0, run on
  the dist executor against a ``repro worker-pool`` subprocess with the
  pickle transport, so block bytes cross the base64/JSON wire. pdf
  converges late: rollback, destroy and re-encode waste all show.

A *pass* is one pipeline run: set-up plus measured work, with a fresh
worker pool for batch. Each pass is an operation the oracle checks.

The serve leg runs in every traced run: one ``repro serve`` subprocess,
one client sending back-to-back 32-block bmp jobs that ship their bytes
in the submit, on warm procs + shm lanes. It is not a timed workload:
its job latency follows the host's single-core speed, which drifts too
far from run to run here for a bound (see README.md).
"""

from __future__ import annotations

import gc
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from perfbench.harness import (WORKERS, Daemon, Oracle, RssWatch, Spans, clock,
                               counter, descendants, exact_bits, median,
                               output_problems, pct, shm_segments)
from perfbench.layers import micro_legs, registry_layers

BLOCK = 4096
#: blocks in one served job.
JOB_BLOCKS = 32
#: warm jobs the serve leg runs per job input.
JOB_ROUNDS = 4
#: stream-txt release rate, blocks/s: about a sixth of what procs
#: sustains in batch. At 200/s and 300/s a busy host queues blocks behind
#: slowed tasks, and the queueing multiplies the slowdown in the block
#: latencies (see README.md).
RATE = 100.0
#: the run's tolerance (RunConfig default), also the oracle's size bound.
TOLERANCE = 0.01


@dataclass
class Sizes:
    """How much work one run does; the smoke tests shrink it."""

    blocks: int = 1024
    job_inputs: int = 8


@dataclass
class Ctx:
    root: Path
    out: Path
    seed: int
    sizes: Sizes
    oracle: Oracle = field(default_factory=Oracle)
    n_pass: int = 0


@dataclass
class Inputs:
    """A pipeline run's inputs, generated from the seed."""

    #: every input byte (the micro-legs time the kernels on them).
    data: bytes
    #: the blocks a pass feeds.
    units: list[bytes]
    #: bits of ``data`` under the exact whole-input tree.
    exact: int


@dataclass
class Pass:
    setup_s: float
    #: per block, ms.
    latencies_ms: np.ndarray
    input_bytes: int
    #: seconds of measured work the input took (throughput denominator).
    busy_s: float
    committed_bits: int
    exact_bits: int
    rss_mb: float
    lags_ms: list[float]
    digest: str | None
    #: registry snapshot, traced passes only.
    snap: dict | None = None
    layers: dict[str, float] = field(default_factory=dict)


def _hygiene(shm_before: set[str]) -> list[str]:
    """Problems left behind: new shm segments, or processes below this
    one other than the stdlib's resource tracker."""
    problems = []
    leaked = shm_segments() - shm_before
    if leaked:
        problems.append(f"leaked shm segments {sorted(leaked)}")
    stray = descendants(os.getpid()) - _resource_trackers()
    if stray:
        problems.append(f"processes outlived the pass {sorted(stray)}")
    return problems


def _resource_trackers() -> set[int]:
    """The multiprocessing resource tracker: a per-process stdlib helper
    that lives until the interpreter exits, not a program worker."""
    out = set()
    for pid in descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                if b"multiprocessing.resource_tracker" in fh.read():
                    out.add(pid)
        except OSError:
            continue
    return out


# ---------------------------------------------------------------------------
# stream-txt and batch-pdf-dist: one run_huffman call per pass
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineWorkload:
    name: str
    workload: str
    reduce_ratio: int
    offset_fanout: int
    #: True: blocks due on an absolute schedule at RATE (open loop);
    #: False: every block due at t0 (batch).
    open_loop: bool
    dist: bool
    #: seconds one pass takes on a 2-core host, set-up and verify included.
    nominal_pass_s: float

    def inputs(self, ctx: Ctx) -> Inputs:
        from repro.sim.rng import make_rng
        from repro.workloads import get_workload

        data = get_workload(self.workload).generate(ctx.sizes.blocks * BLOCK,
                                                    make_rng(ctx.seed))
        return Inputs(data, [data[i:i + BLOCK]
                             for i in range(0, len(data), BLOCK)],
                      exact_bits(data))

    def plan(self, seconds: float) -> int:
        """Passes per run."""
        return max(1, round(seconds / self.nominal_pass_s))

    def config(self, n_blocks: int, port: int | None):
        from repro.experiments.config import RunConfig

        return RunConfig(
            workload=self.workload, n_blocks=n_blocks, io="live",
            executor="dist" if self.dist else "procs",
            pool=f"127.0.0.1:{port}" if self.dist else None,
            transport="pickle" if self.dist else "shm",
            workers=WORKERS, reduce_ratio=self.reduce_ratio,
            offset_fanout=self.offset_fanout, feed_gap_s=0.0,
            tolerance=TOLERANCE, verify_roundtrip=True)

    def run_pass(self, ctx: Ctx, inp: Inputs, spans: Spans) -> Pass | None:
        """One ``run_huffman`` call over every block."""
        from repro.experiments.jobs import JobResources
        from repro.experiments.runner import run_huffman

        ctx.n_pass += 1
        label = f"{self.name} pass {ctx.n_pass}"
        spans.run_id = label
        rate = RATE if self.open_loop else None
        blocks = inp.units
        # The coordinator runs in this process: start every pass from a
        # collected heap, so a full collection of an earlier pass's garbage
        # never lands inside this pass's timed interval.
        gc.collect()
        shm_before = shm_segments()
        due: list[float] = []
        yielded: list[float] = []
        lags: list[float] = []
        marks: dict[str, float] = {}
        problems: list[str] = []
        pool = None
        report = None
        rss = None
        t_start = clock()
        try:
            with spans.span("pass", workload=self.name) as pass_id:
                roots = [os.getpid()]
                port = None
                if self.dist:
                    pool = Daemon(ctx.root, ctx.out, "worker-pool",
                                  ["worker-pool", "--max-workers", str(WORKERS)])
                    with spans.span("pool_start", pass_id):
                        port = pool.start()
                    marks["listening"] = clock()
                    roots.append(pool.proc.pid)

                def source():
                    t0 = marks["t0"] = clock()
                    spans.add("setup", t_start, t0, pass_id)
                    for i, block in enumerate(blocks):
                        d = t0 + i / rate if rate else t0
                        wait = d - clock()
                        if wait > 0:
                            time.sleep(wait)
                        now = clock()
                        due.append(d)
                        yielded.append(now)
                        lags.append((now - d) * 1e3)
                        yield block
                        spans.add("handoff", now, clock(), pass_id, block=i)
                    marks["fed"] = clock()

                with RssWatch(roots) as rss:
                    report = run_huffman(
                        self.config(len(blocks), port),
                        resources=JobResources(block_source=source()))
                    if pool is not None:
                        pool.note_children()
                spans.add("drain_verify_teardown", marks["fed"], clock(), pass_id)
        except Exception as exc:  # noqa: BLE001 - a failed pass is counted
            problems.append(f"run raised {type(exc).__name__}: {exc}")
        finally:
            if pool is not None:
                with spans.span("pool_stop"):
                    if not pool.stop(sigterm=True):
                        problems.append("worker pool did not stop cleanly")
        problems += _hygiene(shm_before)
        if report is None:
            ctx.oracle.op(False, f"{label}: " + "; ".join(problems))
            return None
        res = report.result
        problems += output_problems(report.roundtrip_ok, res.compressed_bits,
                                    inp.exact, TOLERANCE)
        if not ctx.oracle.op(not problems, f"{label}: " + "; ".join(problems)):
            return None
        arrivals = res.arrivals / 1e6
        completions = res.completions / 1e6
        # PipelineResult times are on the executor clock (LiveExecutor.now,
        # s since the executor was built). A block is fed right after the
        # source yields it, so clock offset >= yield - arrival for every
        # block; the tightest bound is the offset.
        offset = float(np.max(np.asarray(yielded) - arrivals))
        latencies = (completions + offset - np.asarray(due)) * 1e3
        out = Pass(
            setup_s=marks["t0"] - t_start,
            latencies_ms=latencies,
            input_bytes=res.input_bytes,
            busy_s=float(completions.max() - arrivals.min()),
            committed_bits=res.compressed_bits,
            exact_bits=inp.exact,
            rss_mb=rss.peak_mb,
            lags_ms=lags,
            digest=report.output_sha256)
        if spans.enabled:
            out.snap = report.metrics.snapshot()
            out.layers = {
                "sre.utilisation": report.utilisation,
                "dist.attach_ms": ((marks["t0"] - marks["listening"]) * 1e3
                                   if self.dist else 0.0),
                "obs.events_per_block": report.events.last_seq / len(blocks),
                "obs.events_dropped": float(report.events.last_seq
                                            - len(report.events)),
            }
        return out

    def headline(self, p: Pass) -> float:
        """The pass's main cost figure (tracing-overhead comparison)."""
        return median(p.latencies_ms) if self.open_loop else p.busy_s

    def reference(self, inp: Inputs) -> tuple[str, float]:
        """Digest of the verified sim run on the same bytes, and the
        recorder's overhead on it (events on vs off), %."""
        from dataclasses import replace

        from repro.experiments.config import RunConfig
        from repro.experiments.runner import run_huffman

        cfg = RunConfig(workload=inp.data, n_blocks=len(inp.units),
                        executor="sim",
                        reduce_ratio=self.reduce_ratio,
                        offset_fanout=self.offset_fanout, tolerance=TOLERANCE)
        t0 = clock()
        on = run_huffman(cfg)
        t1 = clock()
        run_huffman(replace(cfg, events=False))
        t2 = clock()
        return on.output_sha256, 100.0 * ((t1 - t0) / (t2 - t1) - 1.0)


WORKLOADS: dict[str, PipelineWorkload] = {
    "stream-txt": PipelineWorkload("stream-txt", "txt", reduce_ratio=8,
                                   offset_fanout=8, open_loop=True,
                                   dist=False, nominal_pass_s=14.5),
    "batch-pdf-dist": PipelineWorkload("batch-pdf-dist", "pdf",
                                       reduce_ratio=16, offset_fanout=64,
                                       open_loop=False, dist=True,
                                       nominal_pass_s=11.0),
}


# ---------------------------------------------------------------------------
# the serve leg: one daemon session of warm jobs
# ---------------------------------------------------------------------------

def _job_config(n_blocks: int, events_out: Path) -> dict[str, Any]:
    return {"app": "huffman", "n_blocks": n_blocks, "executor": "procs",
            "transport": "shm", "workers": WORKERS, "feed_gap_s": 0.0,
            "tolerance": TOLERANCE, "events_out": str(events_out)}


def _run_result(events_out: Path) -> int:
    """Committed bits from a served job's ``run_result`` event; the file
    is removed."""
    lines = events_out.read_text().splitlines()
    events_out.unlink()
    for line in reversed(lines):
        event = json.loads(line)
        if event.get("kind") == "run_result":
            return int(event["compressed_bits"])
    raise RuntimeError(f"no run_result event in {events_out}")


def serve_leg(ctx: Ctx, spans: Spans) -> dict[str, float]:
    """One ``repro serve`` session: start, one cold job (lane fork), then
    ``JOB_ROUNDS`` warm jobs per job input. Every job is checked by the
    oracle, and the session's hygiene is one more operation."""
    from repro.client import ServeClient
    from repro.sim.rng import make_rng
    from repro.workloads import get_workload

    rng = make_rng(ctx.seed)
    gen = get_workload("bmp")
    jobs = [gen.generate(JOB_BLOCKS * BLOCK, rng)
            for _ in range(ctx.sizes.job_inputs)]
    exacts = [exact_bits(j) for j in jobs]
    spans.run_id = label = "serve session"
    oracle = ctx.oracle
    shm_before = shm_segments()
    daemon = Daemon(ctx.root, ctx.out, "serve", ["serve"])
    lat_ms: list[float] = []
    submit_ms: list[float] = []
    stages: dict[str, list[float]] = {"queue": [], "lane_lease": [],
                                      "execute": []}
    problems: list[str] = []
    stats: dict = {}
    asked_to_stop = False
    t_start = clock()
    try:
        with spans.span("session") as sid:
            port = daemon.start()
            with ServeClient(port=port, timeout_s=120.0) as client:
                for i in range(JOB_ROUNDS * len(jobs) + 1):
                    warm = i > 0
                    k = i % len(jobs)
                    # A fresh events file per job, removed once read:
                    # rewriting one file would make every job pay the
                    # file system's flush-on-truncate.
                    events_out = ctx.out / f"serve-job-{i}-events.jsonl"
                    with spans.span("job", sid, warm=warm) as jid_span:
                        t0 = clock()
                        job_id = client.submit(
                            _job_config(JOB_BLOCKS, events_out),
                            workload=jobs[k])
                        t1 = clock()
                        report = client.result(job_id, wait=True,
                                               timeout_s=120.0)
                        t2 = clock()
                        spans.add("submit", t0, t1, jid_span)
                        spans.add("result", t1, t2, jid_span)
                    wrong = output_problems(report.get("roundtrip_ok"),
                                            _run_result(events_out),
                                            exacts[k], TOLERANCE)
                    oracle.op(not wrong, f"{label} {job_id}: "
                                         + "; ".join(wrong))
                    if not warm:
                        spans.add("setup", t_start, t2, sid)
                        daemon.note_children()
                        continue
                    lat_ms.append((t2 - t0) * 1e3)
                    submit_ms.append((t1 - t0) * 1e3)
                    for s in client.trace(job_id)["spans"]:
                        if s["name"] in stages and s.get("dur_us") is not None:
                            stages[s["name"]].append(s["dur_us"])
                stats = client.stats()
                daemon.note_children()
                with spans.span("shutdown", sid):
                    client.shutdown()
                asked_to_stop = True
    except Exception as exc:  # noqa: BLE001 - a failed session is counted
        problems.append(f"session raised {type(exc).__name__}: {exc}")
    finally:
        if not daemon.stop(sigterm=not asked_to_stop):
            problems.append("serve daemon did not stop cleanly")
    problems += _hygiene(shm_before)
    if not oracle.op(not problems, f"{label}: " + "; ".join(problems)):
        return {}
    execute_ms = np.asarray(stages["execute"]) / 1e3
    return {
        "serve.job_ms_p50": pct(lat_ms, 50),
        "serve.job_ms_p90": pct(lat_ms, 90),
        "serve.submit_ms": median(submit_ms),
        "serve.queue_wait_us_p50": median(stages["queue"]),
        "serve.lane_lease_us_p50": median(stages["lane_lease"]),
        "serve.execute_ms_p50": median(execute_ms),
        "serve.overhead_ms_p50": median(np.asarray(lat_ms) - execute_ms),
        "serve.lane_reuses": counter(stats["metrics"], "serve_lane_reuses"),
    }


# ---------------------------------------------------------------------------
# runs: end-to-end (untraced passes) and per-layer (one traced pass)
# ---------------------------------------------------------------------------

def end_to_end(ctx: Ctx, name: str, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics over untraced passes, plus sample counts.

    The run makes as many passes as take about ``seconds`` on a 2-core
    host. The count depends on ``seconds`` alone, so two commits compared
    with the same setting measure the same work. A pass holds enough
    blocks for its own percentiles; the run reports the median over
    passes, so one stalled pass cannot set them.
    """
    wl = WORKLOADS[name]
    inp = wl.inputs(ctx)
    passes: list[Pass] = []
    for _ in range(wl.plan(seconds)):
        p = wl.run_pass(ctx, inp, Spans(False))
        if p is not None:
            passes.append(p)
        elif ctx.oracle.failed >= 3:
            break
    if not passes:
        return {}, {}
    metrics = {
        "setup_s": median([p.setup_s for p in passes]),
        "latency_p50_ms": median([pct(p.latencies_ms, 50) for p in passes]),
        "latency_p90_ms": median([pct(p.latencies_ms, 90) for p in passes]),
        "throughput_mb_s": sum(p.input_bytes for p in passes) / 1e6
                           / sum(p.busy_s for p in passes),
        "size_vs_exact_pct": 100.0 * sum(p.committed_bits for p in passes)
                             / sum(p.exact_bits for p in passes),
        "peak_rss_mb": median([p.rss_mb for p in passes]),
    }
    counts = {"passes": len(passes),
              "latency_samples": sum(p.latencies_ms.size for p in passes)}
    return metrics, counts


def per_layer(ctx: Ctx, name: str, spans: Spans) -> dict[str, float]:
    """One plain and one traced pass, the micro-legs, the sim reference
    and the serve leg; pipeline layer metrics come from the traced pass."""
    wl = WORKLOADS[name]
    inp = wl.inputs(ctx)
    plain = wl.run_pass(ctx, inp, Spans(False))
    traced = wl.run_pass(ctx, inp, spans)
    if plain is None or traced is None:
        return {}
    served = serve_leg(ctx, spans)
    if not served:
        return {}
    ref_digest, recorder_pct = wl.reference(inp)
    spans.run_id = f"{name} micro-legs"
    metrics = micro_legs(inp.data, spans)
    metrics.update(registry_layers(traced.snap, len(inp.units)))
    metrics.update(traced.layers)
    metrics.update(served)
    metrics["core.digest_matches_reference"] = float(sum(
        p.digest == ref_digest for p in (plain, traced)))
    metrics["obs.recorder_overhead_pct"] = recorder_pct
    metrics["iomodels.feed_lag_p99_ms"] = pct(traced.lags_ms, 99)
    metrics["trace.overhead_pct"] = 100.0 * (wl.headline(traced)
                                             / wl.headline(plain) - 1.0)
    metrics["trace.spans"] = float(len(spans.records))
    return metrics
