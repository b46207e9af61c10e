"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands::

    repro run --workload txt --policy balanced --blocks 256 [--gantt]
    repro run --executor procs --metrics-out run.prom       # live pool + metrics
    repro run --events-out run.events.jsonl                 # flight recorder
    repro run --executor threads --trace-out trace.json     # + chrome trace
    repro trace --job job-1 --port-file serve.port          # a served job's trace
    repro explain run.events.jsonl [--version N]            # rollback post-mortem
    repro replay run.events.jsonl                           # deterministic replay
    repro replay run.events.jsonl --force-policy aggressive --diff  # counterfactual
    repro top run.metrics.json [--once]                     # live text dashboard
    repro bench [--emit-bench-json BENCH_huffman.json]      # perf baseline
    repro fig3 | fig4 | fig5 | fig6 | fig7 | fig8 | fig9   # regenerate a figure
    repro claims                                            # headline table
    repro filter | kmeans                                   # Fig. 1 / §II-A apps
    repro compress FILE [-o OUT] / repro decompress FILE    # container codec
    repro list                                              # what's available

Every option that fills a field of :class:`RunConfig`,
:class:`~repro.serve.settings.ServeSettings` or
:class:`~repro.serve.settings.PoolSettings` is declared by that field: its
dest is the field name and its default the field's default (the app's,
for ``filter`` / ``kmeans``), and each handler builds its config from the
parsed options by field name.

``--metrics-out m.json`` writes the JSON snapshot instead of Prometheus
text. Per-layer timings (per-task executor cost, shm, wire framing, warm
serve jobs) come from the benchmark, ``python3 perfbench/run.py``.

Set ``REPRO_SCALE=paper`` for full paper-scale geometry (slower).
"""

from __future__ import annotations

import argparse
import importlib
import os
import pathlib
import signal
import sys
from dataclasses import fields
from typing import Callable

from repro.core.frequency import VERIFICATIONS
from repro.experiments.config import TRANSPORTS
from repro.experiments.runner import RunConfig, run_huffman
from repro.experiments.scaffold import IO_MODELS
from repro.platforms import PLATFORMS
from repro.serve.settings import PoolSettings, ServeSettings
from repro.sre.policies import policy_names
from repro.sre.registry import executor_names
from repro.workloads.registry import WORKLOADS

__all__ = ["main", "build_parser"]

#: ``--policy`` / ``--force-policy`` values: the dispatch-policy registry
#: plus ``nonspec``, the no-speculation shorthand.
_POLICY_CHOICES = ["nonspec", *policy_names()]

#: Figure subcommands (sorted), each a module of :mod:`repro.experiments`
#: imported when it runs.
_FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "resources")


def _defaults(config: object) -> dict[str, object]:
    """Field name -> value of the dataclass instance ``config``."""
    return {f.name: getattr(config, f.name) for f in fields(config)}


def _fields_of(config: type, args: argparse.Namespace) -> dict[str, object]:
    """The parsed options that fill a field of ``config``, by field name."""
    return {f.name: getattr(args, f.name) for f in fields(config)
            if hasattr(args, f.name)}


def _knobs(p: argparse.ArgumentParser,
           config: object) -> Callable[..., None]:
    """``add(flag, field, **kwargs)``: add to ``p`` an option filling
    ``field``, with the field name as dest and its value in ``config``
    as default. A bool field becomes a switch away from its default; any
    other field's option is typed by its default (when not None) and, if
    it has no choices, shows its flag as metavar."""
    defaults = _defaults(config)

    def add(flag: str, field: str, **kwargs: object) -> None:
        default = defaults[field]
        if isinstance(default, bool):
            kwargs.setdefault("action",
                              "store_false" if default else "store_true")
        else:
            if "choices" not in kwargs:
                kwargs.setdefault("metavar", flag.lstrip("-").replace("-", "_")
                                  .upper())
            if default is not None:
                kwargs.setdefault("type", type(default))
        p.add_argument(flag, dest=field, default=default, **kwargs)

    return add


def _run_events(args: argparse.Namespace, report):
    """The run's events for the trace exporters: the ``--events-out``
    file when one was written (it keeps every event), else the ring."""
    if args.events_out is None:
        return report.events
    from repro.obs.events import load_events_jsonl
    return load_events_jsonl(args.events_out)


def _cmd_run(args: argparse.Namespace) -> int:
    report = run_huffman(config=RunConfig(**_fields_of(RunConfig, args)))
    s = report.summary
    print(f"run        : {report.label}")
    print(f"outcome    : {report.result.outcome}")
    print(f"avg latency: {s.avg_latency_us:,.0f} µs")
    print(f"max latency: {s.max_latency_us:,.0f} µs")
    print(f"runtime    : {s.completion_time_us:,.0f} µs")
    print(f"compression: {s.compression_ratio:.3f}x")
    print(f"rollbacks  : {s.rollbacks}   wasted encodes: {s.wasted_encodes}")
    print(f"utilisation: {report.utilisation:.1%}")
    print(f"round-trip : {'ok' if report.roundtrip_ok else 'FAILED'}")
    if args.gantt or args.trace_out is not None:
        from repro.obs.traceview import ascii_gantt, to_chrome_trace
        events = _run_events(args, report)
        if args.gantt:
            print()
            print(ascii_gantt(events))
        if args.trace_out is not None:
            pathlib.Path(args.trace_out).write_text(to_chrome_trace(events))
            print(f"chrome trace written to {args.trace_out}")
    if args.metrics_out is not None:
        from repro.obs.exporters import write_metrics
        fmt = write_metrics(args.metrics_out, report.metrics.snapshot(),
                            args.metrics_format)
        print(f"metrics snapshot ({fmt}) written to {args.metrics_out}")
    if args.events_out is not None:
        print(f"event log written to {args.events_out} "
              f"(inspect with: repro explain {args.events_out})")
    for warning in report.warnings or ():
        print(f"warning    : {warning}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Reconstruct rollback cascades from an ``*.events.jsonl`` file."""
    from repro.obs.explain import explain_path
    print(explain_path(args.events, version=args.version))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard over a snapshot file or a live serve daemon."""
    if args.serve:
        from repro.obs.top import run_top_serve
        host, _, port = args.serve.rpartition(":")
        try:
            port_num = int(port)
        except ValueError:
            raise SystemExit(
                f"--serve wants HOST:PORT (got {args.serve!r})") from None
        return run_top_serve(host or "127.0.0.1", port_num,
                             once=args.once, interval_s=args.interval)
    if args.snapshot is None:
        raise SystemExit("repro top needs a snapshot file "
                         "or --serve HOST:PORT")
    from repro.obs.top import run_top
    return run_top(args.snapshot, once=args.once, interval_s=args.interval)


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the benchmark suite; optionally emit the machine-readable doc."""
    import json as json_mod
    from repro.experiments.bench import render_bench, run_bench
    doc = run_bench(seed=args.seed, blocks=args.blocks,
                    quick=not args.full)
    print(render_bench(doc))
    if args.emit_bench_json is not None:
        pathlib.Path(args.emit_bench_json).write_text(
            json_mod.dumps(doc, indent=2) + "\n")
        print(f"bench doc written to {args.emit_bench_json}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Fetch a served job's distributed trace and render/export it."""
    import json as json_mod

    from repro.client import ServeClient
    from repro.obs.spans import render_span_tree
    from repro.obs.traceview import spans_to_chrome_trace

    if not args.job:
        raise SystemExit("repro trace requires --job JOB_ID")
    with ServeClient(args.host, port=_resolve_port(args)) as client:
        doc = client.trace(args.job)
    spans = doc.get("spans") or []
    print(f"{args.job}  trace {doc.get('trace_id')}  "
          f"state {doc.get('state')}  spans {len(spans)}")
    for line in render_span_tree(spans):
        print(line)
    if args.spans_json is not None:
        pathlib.Path(args.spans_json).write_text(
            json_mod.dumps(doc, indent=2) + "\n")
        print(f"span list written to {args.spans_json}")
    if args.out is not None:
        pathlib.Path(args.out).write_text(spans_to_chrome_trace(spans))
        print(f"chrome trace written to {args.out} "
              "(open in chrome://tracing or ui.perfetto.dev)")
    return 0


def _cmd_app(args: argparse.Namespace) -> int:
    """Run the filter (Fig. 1) or k-means (§II-A) application."""
    from repro.experiments.jobs import run_job
    report = run_job(RunConfig.for_app(args.command,
                                       **_fields_of(RunConfig, args)))
    extras = report.extras
    if args.command == "filter":
        width, rows = 14, [
            ("response error", f"{extras['response_error']:.4f}"),
            ("output", "ok" if extras["output_ok"] else "FAILED")]
    else:
        width, rows = 12, [
            ("inertia", f"{extras['inertia']:.4f}"),
            ("labels", "ok" if extras["labels_ok"] else "FAILED")]
    for label, value in [("outcome", report.result.outcome),
                         ("avg latency", f"{report.avg_latency:,.0f} µs"),
                         ("runtime", f"{report.completion_time:,.0f} µs"),
                         ("rollbacks", extras["rollbacks"]), *rows]:
        print(f"{label:<{width}}: {value}")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    from repro.huffman.container import compress
    data = pathlib.Path(args.file).read_bytes()
    blob = compress(data)
    out = args.output or args.file + ".rhuf"
    pathlib.Path(out).write_bytes(blob)
    ratio = len(data) / len(blob) if blob else float("inf")
    print(f"{args.file}: {len(data):,} B -> {out}: {len(blob):,} B ({ratio:.3f}x)")
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    from repro.huffman.container import decompress
    blob = pathlib.Path(args.file).read_bytes()
    data = decompress(blob)
    out = args.output or (args.file[:-5] if args.file.endswith(".rhuf")
                          else args.file + ".out")
    pathlib.Path(out).write_bytes(data)
    print(f"{args.file}: {len(blob):,} B -> {out}: {len(data):,} B")
    return 0


def _cmd_figure(name: str, args: argparse.Namespace) -> int:
    module = importlib.import_module(f"repro.experiments.{name}")
    result = module.run(seed=args.seed)
    print(result.render(charts=not args.no_charts))
    return 0


def _cmd_claims(args: argparse.Namespace) -> int:
    from repro.experiments import claims
    print(claims.render(claims.run(seed=args.seed)))
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("figures :", ", ".join(_FIGURES))
    print("workloads:", ", ".join(WORKLOADS))
    print("platforms:", ", ".join(PLATFORMS))
    print("executors:", ", ".join(executor_names()))
    print("transports:", ", ".join(TRANSPORTS))
    print("io       :", ", ".join(IO_MODELS))
    print("policies :", ", ".join(_POLICY_CHOICES))
    print("verification:", ", ".join(VERIFICATIONS))
    print("apps     : filter (Fig. 1), kmeans (§II-A)")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Deterministically re-execute a recorded run (or a counterfactual)."""
    from repro.errors import ReplayDivergence, ReplayError
    from repro.obs.events import EventSchemaError
    from repro.sre.replay import render_diff, replay_path

    force = {k: v for k, v in {
        "policy": args.force_policy,
        "tolerance": args.force_tolerance,
        "step": args.force_step,
        "executor": args.force_executor,
    }.items() if v is not None}
    try:
        res = replay_path(args.events, force=force or None,
                          events_out=args.events_out)
    except ReplayDivergence as exc:
        print(f"replay DIVERGED: {exc}")
        return 1
    except (ReplayError, EventSchemaError, OSError) as exc:
        print(f"replay failed: {exc}")
        return 1
    rec = res.recorded
    rep = res.replayed
    if res.counterfactual:
        forced = ", ".join(f"{k}={v}" for k, v in sorted(force.items()))
        print(f"counterfactual replay of {args.events} (forcing {forced})")
        print(render_diff(rec, rep))
    else:
        print(f"replay_ok  : {args.events}")
        print(f"schedule   : {len(res.schedule)} gated decisions, "
              f"schedule_match={res.schedule_match}")
        print(f"outcome    : {rep.outcome}  (recorded: {rec.outcome})")
        print(f"output sha : {rep.output_sha256}")
        if args.diff:
            print()
            print(render_diff(rec, rep, labels=("recorded", "replayed")))
    if args.events_out is not None:
        print(f"replay event log written to {args.events_out}")
    return 0


def _add_daemon_address(p: argparse.ArgumentParser) -> None:
    """``--host`` / ``--port`` / ``--port-file`` of a running daemon, as
    read back by :func:`_resolve_port`."""
    p.add_argument("--host", default="127.0.0.1", help="daemon host")
    p.add_argument("--port", type=int, default=None, help="daemon port")
    p.add_argument("--port-file", default=None, dest="port_file",
                   help="read the daemon port from this file, as written "
                        "by `repro serve --port-file`")


def _add_listen_address(add: Callable[..., None]) -> None:
    """A daemon's own ``--host`` / ``--port`` / ``--port-file``."""
    add("--host", "host")
    add("--port", "port", help="listen port (default 0: ephemeral; see "
                               "--port-file)")
    add("--port-file", "port_file",
        help="write the bound port here once listening (the CI / "
             "scripting rendezvous)")


def _resolve_port(args: argparse.Namespace) -> int:
    """--port wins; --port-file (written by `repro serve`) is the CI path."""
    if args.port is not None:
        return args.port
    if args.port_file is not None:
        with open(args.port_file, encoding="utf-8") as fh:
            return int(fh.read().strip())
    raise SystemExit("need --port or --port-file to find the daemon")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import SpeculationServer

    settings = ServeSettings(**_fields_of(ServeSettings, args))
    server = SpeculationServer(settings).start()
    print(f"repro serve listening on {settings.host}:{server.port} "
          f"(pid {os.getpid()})")
    server.serve_until_shutdown()
    print("repro serve stopped")
    return 0


def _cmd_worker_pool(args: argparse.Namespace) -> int:
    from repro.sre.worker_pool import WorkerPoolServer

    settings = PoolSettings(**_fields_of(PoolSettings, args))
    server = WorkerPoolServer(settings).start()
    # SIGTERM (plain `kill`, CI teardown) must stop the pool cleanly so
    # buffered event/metric sinks flush — same exit path as the shutdown op.
    signal.signal(signal.SIGTERM,
                  lambda *_: server.shutdown_requested.set())
    print(f"repro worker-pool listening on {settings.host}:{server.port} "
          f"(pid {os.getpid()})")
    server.serve_until_shutdown()
    print("repro worker-pool stopped")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.client import JobRejected, ServeClient, ServeError

    # Options left at their default stay out of the request, so the
    # daemon's RunConfig.for_app fills the app's own defaults;
    # --config-json wins over the flags.
    config = json.loads(args.config_json) if args.config_json else {}
    defaults = _defaults(RunConfig())
    for name, value in _fields_of(RunConfig, args).items():
        if value != defaults[name]:
            config.setdefault(name, value)
    with ServeClient(args.host, port=_resolve_port(args)) as client:
        try:
            job_id = client.submit(config, tenant=args.tenant)
        except JobRejected as exc:
            print(f"rejected ({exc.reason}): {exc}")
            return 1
        if args.no_wait:
            print(job_id)
            return 0
        try:
            report = client.result(job_id, wait=True, timeout_s=args.timeout)
        except ServeError as exc:
            print(f"{job_id} failed: {exc}")
            return 1
    print(f"job        : {job_id}  (tenant {args.tenant})")
    print(f"label      : {report['label']}")
    print(f"outcome    : {report['outcome']}")
    print(f"output sha : {report['output_sha256']}")
    print(f"avg latency: {report['avg_latency']:.1f} us   "
          f"completion: {report['completion_time']:.1f} us")
    for key, value in sorted((report.get("extras") or {}).items()):
        if key == "live_arrivals_us":
            value = f"[{len(value)} arrivals]"
        print(f"{key:<11}: {value}")
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.client import ServeClient

    with ServeClient(args.host, port=_resolve_port(args)) as client:
        if args.shutdown:
            client.shutdown()
            print("shutdown requested")
            return 0
        rows = client.jobs()
        stats = client.stats() if args.stats else None
    if not rows:
        print("no jobs")
    for row in rows:
        line = (f"{row['job_id']:<10} {row['tenant']:<12} "
                f"{row['app']:<8} {row['state']:<8}")
        if "latency_s" in row:
            line += f" {row['latency_s']:.3f}s"
        if "error" in row:
            line += f"  {row['error']}"
        print(line)
    if stats is not None:
        adm = stats["admission"]
        print(f"\ninflight: {adm['inflight_total']}/{adm['queue_limit']}")
        for tenant, t in adm["tenants"].items():
            print(f"  {tenant:<12} jobs={t['inflight_jobs']} "
                  f"bytes={t['inflight_bytes']} breaker={t['breaker']} "
                  f"rejections={t['rejections']}")
        for lane in stats["lanes"]:
            print(f"  lane {lane['tenant']}/{lane['workers']}w "
                  f"in_use={lane['in_use']} served={lane['jobs_served']}")
        print(f"  store refs={stats['store']['live_refs']} "
              f"segments={stats['store']['live_segments']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser.

    Exposed separately from :func:`main` so tooling (e.g.
    ``tools/check_doc_links.py``) can introspect the registered
    subcommand names without running anything.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tolerant value speculation in coarse-grain streaming "
                    "computations (IPPS 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one Huffman experiment")
    # --blocks: 256, where the field's None means the scale's default
    add = _knobs(p_run, RunConfig(n_blocks=256))
    add("--workload", "workload", choices=list(WORKLOADS))
    add("--blocks", "n_blocks")
    add("--executor", "executor", choices=list(executor_names()),
        help="back-end: simulated clock (paper figures), live thread "
             "pool, or live process pool")
    add("--transport", "transport", choices=TRANSPORTS,
        help="payload transport: pickle block bytes per task, or "
             "shared-memory blocks + refs (zero-copy on the procs "
             "back-end)")
    add("--platform", "platform", choices=list(PLATFORMS))
    add("--io", "io", choices=IO_MODELS)
    add("--policy", "policy", choices=_POLICY_CHOICES)
    add("--nonspec", "speculative", help="disable speculation entirely")
    add("--step", "step")
    add("--verification", "verification", choices=list(VERIFICATIONS))
    add("--verify-k", "verify_k")
    add("--tolerance", "tolerance")
    add("--seed", "seed")
    add("--workers", "workers", type=int,
        help="worker seats for the live back-ends (threads/procs/dist)")
    add("--pool", "pool", metavar="HOST:PORT",
        help="remote worker-pool rendezvous for the dist back-end (a "
             "running `repro worker-pool`)")
    add("--fault", "fault_plan", metavar="PLAN",
        help="inject deterministic worker faults on the procs/dist "
             "back-ends, e.g. 'kill@3' or 'hang@2:w1,kill@1!' (see "
             "docs/fault-tolerance.md)")
    add("--dispatch-timeout", "dispatch_timeout_s", metavar="SECONDS",
        help="per-payload reply deadline on the procs back-end (never "
             "scaled by batch size)")
    p_run.add_argument("--gantt", action="store_true",
                       help="print an ASCII gantt of the run")
    p_run.add_argument("--trace-out", default=None, dest="trace_out",
                       help="write a chrome://tracing JSON to this path")
    add("--metrics-out", "metrics_out",
        help="write a metrics snapshot to this path (.json → JSON, else "
             "Prometheus text); long runs rewrite it periodically while "
             "running")
    p_run.add_argument("--metrics-format", default=None, dest="metrics_format",
                       choices=["prom", "json"],
                       help="force the --metrics-out format instead of "
                            "inferring it from the extension")
    add("--events-out", "events_out",
        help="write the flight-recorder event log (JSONL) to this path; "
             "feed it to `repro explain`")
    p_run.set_defaults(fn=_cmd_run)

    p_trace = sub.add_parser(
        "trace",
        help="fetch a served job's distributed trace from a running "
             "`repro serve` daemon (see docs/tracing.md); a one-shot "
             "run's trace comes from `repro run --trace-out / --gantt`")
    p_trace.add_argument("--job", default=None, help="job id to trace")
    _add_daemon_address(p_trace)
    p_trace.add_argument("-o", "--out", default=None,
                         help="write chrome://tracing JSON to this path")
    p_trace.add_argument("--spans-json", default=None, dest="spans_json",
                         help="also write the raw span list (JSON) to this "
                              "path")
    p_trace.set_defaults(fn=_cmd_trace)

    for app, what in (("filter", "the Fig. 1 filter application"),
                      ("kmeans", "the speculative k-means application")):
        p_app = sub.add_parser(app, help=f"run {what}")
        add = _knobs(p_app, RunConfig.for_app(app))
        add("--blocks", "n_blocks")
        add("--nonspec", "speculative")
        add("--step", "step")
        add("--tolerance", "tolerance")
        if app == "kmeans":
            add("--drift", "drift_blocks",
                help="blocks of early cluster drift (provokes rollbacks)")
        add("--seed", "seed")
        p_app.set_defaults(fn=_cmd_app)

    p_comp = sub.add_parser("compress", help="compress a file to a .rhuf container")
    p_comp.add_argument("file")
    p_comp.add_argument("-o", "--output", default=None)
    p_comp.set_defaults(fn=_cmd_compress)

    p_dec = sub.add_parser("decompress", help="decompress a .rhuf container")
    p_dec.add_argument("file")
    p_dec.add_argument("-o", "--output", default=None)
    p_dec.set_defaults(fn=_cmd_decompress)

    for name in _FIGURES:
        p = sub.add_parser(name, help=f"regenerate {name}")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--no-charts", action="store_true")
        p.set_defaults(fn=lambda a, n=name: _cmd_figure(n, a))

    p_explain = sub.add_parser(
        "explain",
        help="post-mortem: reconstruct rollback cascades from an event log")
    p_explain.add_argument("events",
                           help="*.events.jsonl file from `repro run "
                                "--events-out`")
    p_explain.add_argument("--version", type=int, default=None,
                           help="only explain rollbacks of this speculation "
                                "version")
    p_explain.set_defaults(fn=_cmd_explain)

    p_replay = sub.add_parser(
        "replay",
        help="deterministically re-execute a recorded run from its event "
             "log (time-travel debugging; see docs/replay.md)")
    p_replay.add_argument("events",
                          help="*.events.jsonl file from `repro run "
                               "--events-out` (must carry the log_header "
                               "schema record)")
    p_replay.add_argument("--force-policy", default=None, dest="force_policy",
                          choices=_POLICY_CHOICES,
                          help="counterfactual: re-run under this dispatch "
                               "policy instead of the recorded one")
    p_replay.add_argument("--force-tolerance", type=float, default=None,
                          dest="force_tolerance",
                          help="counterfactual: re-run with this error "
                               "tolerance")
    p_replay.add_argument("--force-step", type=int, default=None,
                          dest="force_step",
                          help="counterfactual: re-run with this speculation "
                               "step")
    p_replay.add_argument("--force-executor", default=None,
                          dest="force_executor",
                          help="counterfactual: re-run on this executor "
                               "back-end")
    p_replay.add_argument("--diff", action="store_true",
                          help="print the recorded-vs-replayed cascade "
                               "delta table (rollbacks, wasted µs, shm "
                               "churn); implied for counterfactual runs")
    p_replay.add_argument("--events-out", default=None, dest="events_out",
                          help="also record the replayed run's event log "
                               "to this path")
    p_replay.set_defaults(fn=_cmd_replay)

    p_top = sub.add_parser(
        "top",
        help="live text dashboard over a metrics snapshot file or a "
             "running serve daemon")
    p_top.add_argument("snapshot", nargs="?", default=None,
                       help="JSON snapshot kept fresh by `repro run "
                            "--metrics-out run.metrics.json` (long runs "
                            "rewrite it periodically); omit with --serve")
    p_top.add_argument("--serve", default=None, metavar="HOST:PORT",
                       help="poll a live daemon's stats op instead of a "
                            "file: per-tenant job rates, breaker states, "
                            "lane occupancy, stage p50/p95")
    p_top.add_argument("--once", action="store_true",
                       help="print a single frame and exit (CI / scripting)")
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="refresh interval in seconds")
    p_top.set_defaults(fn=_cmd_top)

    p_bench = sub.add_parser(
        "bench",
        help="run the perf baseline suite (see tools/bench_gate.py)")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--blocks", type=int, default=64)
    p_bench.add_argument("--full", action="store_true",
                         help="more timed repeats for the live procs+shm "
                              "wall-clock leg (slower, steadier numbers; "
                              "the leg itself always runs and is gated)")
    p_bench.add_argument("--emit-bench-json", default=None,
                         dest="emit_bench_json",
                         help="write the machine-readable bench doc here "
                              "(compare with tools/bench_gate.py)")
    p_bench.set_defaults(fn=_cmd_bench)

    p_claims = sub.add_parser("claims", help="headline paper-vs-measured table")
    p_claims.add_argument("--seed", type=int, default=0)
    p_claims.set_defaults(fn=_cmd_claims)

    p_list = sub.add_parser("list", help="list figures and options")
    p_list.set_defaults(fn=_cmd_list)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived speculation service: warm worker pools + shm "
             "arenas, jobs over a local socket (see docs/service.md)")
    add = _knobs(p_serve, ServeSettings())
    _add_listen_address(add)
    add("--job-workers", "job_workers",
        help="concurrent running jobs daemon-wide")
    add("--max-tenant-jobs", "max_tenant_jobs",
        help="per-tenant bulkhead: concurrent jobs")
    add("--max-tenant-bytes", "max_tenant_bytes",
        help="per-tenant bulkhead: in-flight payload bytes")
    add("--queue-limit", "queue_limit",
        help="daemon-wide in-flight cap (backpressure past it: "
             "submissions get queue_full)")
    add("--breaker-threshold", "breaker_threshold",
        help="consecutive worker-killing failures that open a tenant's "
             "circuit breaker")
    add("--breaker-cooldown", "breaker_cooldown_s", metavar="SECONDS",
        help="open-breaker cooldown before one half-open probe job is "
             "admitted")
    add("--max-lanes", "max_lanes",
        help="warm worker-pool lanes kept alive (excess procs jobs run "
             "cold)")
    add("--events-out", "events_out",
        help="write the daemon's lifecycle event log (JSONL) to this path")
    add("--metrics-out", "metrics_out",
        help="write the daemon-wide metrics snapshot here periodically "
             "(.json → JSON, else Prometheus text); `repro top FILE` can "
             "tail it")
    add("--metrics-interval-s", "metrics_interval_s", metavar="SECONDS",
        help="seconds between --metrics-out snapshots")
    p_serve.set_defaults(fn=_cmd_serve)

    p_pool = sub.add_parser(
        "worker-pool",
        help="host a worker pool for the dist back-end: a "
             "WorkerSupervisor behind a TCP socket (see "
             "docs/distributed.md)")
    add = _knobs(p_pool, PoolSettings())
    _add_listen_address(add)
    add("--fault", "fault_plan", metavar="PLAN",
        help="default chaos plan armed on every attached session's "
             "workers when the coordinator ships none, e.g. 'kill@3' (see "
             "docs/fault-tolerance.md)")
    add("--max-workers", "max_workers",
        help="cap on seats one attach may request")
    add("--events-out", "events_out",
        help="write the pool's lifecycle event log (JSONL) to this path")
    p_pool.set_defaults(fn=_cmd_worker_pool)

    p_submit = sub.add_parser(
        "submit", help="submit one job to a running `repro serve` daemon")
    _add_daemon_address(p_submit)
    p_submit.add_argument("--tenant", default="default")
    add = _knobs(p_submit, RunConfig())
    add("--app", "app", choices=["huffman", "filter", "kmeans"])
    add("--workload", "workload", choices=list(WORKLOADS))
    add("--blocks", "n_blocks", type=int)
    add("--executor", "executor",
        help="sim, threads or procs (procs runs on a warm daemon lane)")
    add("--transport", "transport", choices=TRANSPORTS,
        help="shm uses the daemon's warm arenas")
    add("--workers", "workers", type=int)
    add("--nonspec", "speculative")
    add("--seed", "seed")
    p_submit.add_argument("--config-json", default=None, dest="config_json",
                          help="raw RunConfig keywords as JSON (wins over "
                               "the flags above)")
    p_submit.add_argument("--no-wait", action="store_true", dest="no_wait",
                          help="print the job id and exit instead of "
                               "waiting for the result")
    p_submit.add_argument("--timeout", type=float, default=120.0,
                          help="seconds to wait for the result")
    p_submit.set_defaults(fn=_cmd_submit)

    p_jobs = sub.add_parser(
        "jobs", help="inspect (or shut down) a running `repro serve` daemon")
    _add_daemon_address(p_jobs)
    p_jobs.add_argument("--stats", action="store_true",
                        help="also print admission / breaker / lane / "
                             "arena state")
    p_jobs.add_argument("--shutdown", action="store_true",
                        help="ask the daemon to stop")
    p_jobs.set_defaults(fn=_cmd_jobs)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`repro fig3 | head -1`): stop quietly.
        # Point stdout at devnull so the interpreter's exit-time flush of
        # the unwritten buffer cannot raise again, and report the status
        # a shell gives a process that SIGPIPE ended.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 128 + signal.SIGPIPE
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
