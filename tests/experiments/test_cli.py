"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig3" in out and "fig9" in out
    assert "balanced" in out


def test_run_small(capsys):
    rc = main(["run", "--workload", "txt", "--blocks", "32",
               "--policy", "balanced", "--step", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "avg latency" in out
    assert "round-trip : ok" in out


def test_run_nonspec_flag(capsys):
    rc = main(["run", "--workload", "txt", "--blocks", "16", "--nonspec"])
    assert rc == 0
    assert "non_speculative" in capsys.readouterr().out


def _choices(subcommand, dest):
    """The ``choices`` of one subcommand's option, as registered."""
    import argparse
    from repro.cli import build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[subcommand]._actions
                if a.dest == dest)


def test_run_accepts_every_registered_policy(capsys):
    # ratio and throttled are registered policies that RunConfig accepts;
    # the parser must not turn them away with a hand-copied list
    rc = main(["run", "--blocks", "8", "--policy", "ratio"])
    assert rc == 0
    assert "run        : txt/x86/ratio" in capsys.readouterr().out


def test_list_matches_parser_choices(capsys):
    from repro.core.frequency import VERIFICATIONS
    from repro.experiments.config import TRANSPORTS
    from repro.experiments.scaffold import IO_MODELS
    from repro.platforms import PLATFORMS
    from repro.sre.policies import policy_names
    from repro.workloads.registry import WORKLOADS
    assert main(["list"]) == 0
    listed = {}
    for line in capsys.readouterr().out.splitlines():
        key, _, values = line.partition(":")
        listed[key.strip()] = values.strip().split(", ")
    assert listed["policies"] == list(_choices("run", "policy"))
    assert listed["policies"] == list(_choices("replay", "force_policy"))
    assert set(listed["policies"]) == {"nonspec", *policy_names()}
    assert listed["workloads"] == list(_choices("run", "workload"))
    assert listed["workloads"] == list(_choices("submit", "workload"))
    assert set(listed["workloads"]) == set(WORKLOADS)
    assert listed["transports"] == list(_choices("run", "transport"))
    assert listed["transports"] == list(_choices("submit", "transport"))
    assert listed["transports"] == list(TRANSPORTS)
    assert listed["platforms"] == list(_choices("run", "platform"))
    assert listed["platforms"] == list(PLATFORMS)
    assert listed["verification"] == list(_choices("run", "verification"))
    assert listed["verification"] == list(VERIFICATIONS)
    assert listed["io"] == list(_choices("run", "io"))
    assert listed["io"] == list(IO_MODELS)


def _config_defaults():
    """Per config-backed subcommand: the config its options fill (an
    instance holding their defaults) and the dests that fill no field."""
    from repro.experiments.config import RunConfig
    from repro.serve.settings import PoolSettings, ServeSettings
    return {
        # run --blocks is 256; the field's None means the scale default
        "run": (RunConfig(n_blocks=256),
                {"gantt", "trace_out", "metrics_format"}),
        "filter": (RunConfig.for_app("filter"), set()),
        "kmeans": (RunConfig.for_app("kmeans"), set()),
        "submit": (RunConfig(), {"host", "port", "port_file", "tenant",
                                 "config_json", "no_wait", "timeout"}),
        "serve": (ServeSettings(), set()),
        "worker-pool": (PoolSettings(), set()),
    }


def test_config_backed_options_default_to_their_field():
    import argparse
    from repro.cli import build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    wrong = []
    for command, (config, other) in _config_defaults().items():
        for action in sub.choices[command]._actions:
            if isinstance(action, argparse._HelpAction) \
                    or action.dest in other:
                continue
            flag = f"{command} {action.option_strings[-1]}"
            if not hasattr(config, action.dest):
                wrong.append(f"{flag}: dest {action.dest!r} is no field")
            elif action.default != getattr(config, action.dest):
                wrong.append(f"{flag}: default {action.default!r} != "
                             f"{getattr(config, action.dest)!r}")
    assert not wrong, "\n".join(wrong)


@pytest.mark.parametrize("app", ["filter", "kmeans"])
def test_bare_app_command_runs_the_app_defaults(app, monkeypatch):
    from repro.experiments import jobs
    from repro.experiments.config import RunConfig

    class Ran(Exception):
        pass

    def capture(config, **_kwargs):
        raise Ran(config)

    monkeypatch.setattr(jobs, "run_job", capture)
    with pytest.raises(Ran) as ran:
        main([app])
    assert ran.value.args[0] == RunConfig.for_app(app)


def test_daemon_address_flags_resolve_port(tmp_path):
    from repro.cli import _resolve_port, build_parser
    port_file = tmp_path / "serve.port"
    port_file.write_text("7071\n")
    parser = build_parser()
    for argv in (["trace"], ["submit"], ["jobs"]):
        args = parser.parse_args([*argv, "--port-file", str(port_file)])
        assert args.host == "127.0.0.1"
        assert _resolve_port(args) == 7071
        args = parser.parse_args([*argv, "--port", "9", "--port-file",
                                  str(port_file)])
        assert _resolve_port(args) == 9
        with pytest.raises(SystemExit, match="--port or --port-file"):
            _resolve_port(parser.parse_args(argv))


def test_run_rejects_bad_workload():
    with pytest.raises(SystemExit):
        main(["run", "--workload", "exe"])


def test_run_fault_requires_procs():
    from repro.errors import ExperimentError
    with pytest.raises(ExperimentError, match="procs"):
        main(["run", "--blocks", "16", "--fault", "kill@1"])


@pytest.mark.procs
def test_run_fault_injects_and_reports(capsys, tmp_path):
    # One worker: every payload lands on slot 0, so kill@1 always fires.
    events = tmp_path / "fault.events.jsonl"
    rc = main(["run", "--blocks", "16", "--executor", "procs",
               "--workers", "1", "--fault", "kill@1",
               "--events-out", str(events)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "worker_churn" in out
    log = events.read_text()
    assert '"kind": "worker_crash"' in log
    assert '"kind": "worker_respawn"' in log


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_run_with_gantt(capsys):
    rc = main(["run", "--workload", "txt", "--blocks", "16", "--gantt"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "encode |" in out


def test_run_trace_export(tmp_path, capsys):
    out_file = tmp_path / "trace.json"
    rc = main(["run", "--workload", "txt", "--blocks", "16",
               "--trace-out", str(out_file)])
    assert rc == 0
    import json
    doc = json.loads(out_file.read_text())
    assert doc["traceEvents"]
    # with --events-out the chart is drawn from that file: same chart
    from_file = tmp_path / "trace-from-file.json"
    rc = main(["run", "--workload", "txt", "--blocks", "16",
               "--events-out", str(tmp_path / "run.events.jsonl"),
               "--trace-out", str(from_file)])
    assert rc == 0
    assert json.loads(from_file.read_text()) == doc


def test_filter_command(capsys):
    rc = main(["filter", "--blocks", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "response error" in out


def test_compress_decompress_roundtrip(tmp_path, capsys):
    src = tmp_path / "data.txt"
    src.write_bytes(b"cli compression round trip " * 200)
    assert main(["compress", str(src)]) == 0
    blob = tmp_path / "data.txt.rhuf"
    assert blob.exists()
    out = tmp_path / "back.txt"
    assert main(["decompress", str(blob), "-o", str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()


def test_fig2_subcommand(capsys):
    rc = main(["fig2", "--no-charts"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fig2" in out and "speculative" in out


def test_kmeans_command(capsys):
    rc = main(["kmeans", "--blocks", "12"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "inertia" in out and "labels      : ok" in out


def test_run_metrics_out(tmp_path, capsys):
    path = tmp_path / "m.prom"
    rc = main(["run", "--blocks", "16", "--metrics-out", str(path)])
    assert rc == 0
    assert "metrics snapshot (prom)" in capsys.readouterr().out
    text = path.read_text()
    assert "# TYPE repro_spec_commits_total counter" in text
    assert "# TYPE repro_sre_tasks_completed_total counter" in text
    assert "repro_sre_tasks_ready_total" in text


def test_run_metrics_out_format_override(tmp_path):
    from repro.obs.exporters import load_json_snapshot
    path = tmp_path / "metrics.txt"
    rc = main(["run", "--blocks", "16", "--metrics-out", str(path),
               "--metrics-format", "json"])
    assert rc == 0
    snap = load_json_snapshot(path.read_text())
    names = {m["name"] for m in snap["metrics"]}
    assert {"spec_commits", "sre_tasks_completed", "block_latency_us"} <= names


def test_list_shows_executors_and_transports(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "procs" in out and "sim" in out and "threads" in out
    assert "pickle, shm" in out


def test_run_with_shm_transport(capsys):
    rc = main(["run", "--workload", "txt", "--blocks", "16",
               "--transport", "shm"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "round-trip : ok" in out


def test_run_rejects_unknown_transport():
    with pytest.raises(SystemExit):
        main(["run", "--workload", "txt", "--blocks", "16",
              "--transport", "fax"])


def test_run_events_out_then_explain(tmp_path, capsys):
    path = tmp_path / "run.events.jsonl"
    rc = main(["run", "--blocks", "24", "--tolerance", "0",
               "--events-out", str(path)])
    assert rc == 0
    assert "event log written" in capsys.readouterr().out
    rc = main(["explain", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rollback cascade(s)" in out
    assert "root cause" in out and "destroyed:" in out


def test_explain_version_filter(tmp_path, capsys):
    path = tmp_path / "run.events.jsonl"
    main(["run", "--blocks", "24", "--tolerance", "0",
          "--events-out", str(path)])
    capsys.readouterr()
    assert main(["explain", str(path), "--version", "999"]) == 0
    assert "0 rollback cascade(s)" in capsys.readouterr().out


def test_top_once_renders_snapshot(tmp_path, capsys):
    path = tmp_path / "run.metrics.json"
    main(["run", "--blocks", "16", "--metrics-out", str(path)])
    capsys.readouterr()
    assert main(["top", str(path), "--once"]) == 0
    out = capsys.readouterr().out
    assert "repro top" in out and "blocks committed" in out


def test_bench_emits_gateable_doc(tmp_path, capsys):
    import json as _json
    path = tmp_path / "bench.json"
    rc = main(["bench", "--blocks", "16", "--emit-bench-json", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "blocks_per_virtual_s" in out and "[gated" in out
    doc = _json.loads(path.read_text())
    assert doc["metrics"]["blocks_per_virtual_s"] > 0
    assert "blocks_per_virtual_s" in doc["gate"]
    # the emitted doc always passes the gate against itself
    import subprocess, sys, pathlib as _pl
    gate = _pl.Path(__file__).resolve().parents[2] / "tools" / "bench_gate.py"
    proc = subprocess.run(
        [sys.executable, str(gate), "--baseline", str(path),
         "--current", str(path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "bench gate: passed" in proc.stdout


def test_replay_faithful_roundtrip(tmp_path, capsys):
    path = tmp_path / "run.events.jsonl"
    main(["run", "--blocks", "24", "--tolerance", "0",
          "--events-out", str(path)])
    capsys.readouterr()
    assert main(["replay", str(path)]) == 0
    out = capsys.readouterr().out
    assert "replay_ok" in out
    assert "schedule_match=True" in out
    assert "output sha" in out


def test_replay_counterfactual_prints_diff(tmp_path, capsys):
    path = tmp_path / "run.events.jsonl"
    main(["run", "--blocks", "24", "--tolerance", "0",
          "--events-out", str(path)])
    capsys.readouterr()
    assert main(["replay", str(path), "--force-policy", "aggressive",
                 "--diff"]) == 0
    out = capsys.readouterr().out
    assert "counterfactual" in out and "policy=aggressive" in out
    assert "rollbacks" in out and "wasted us" in out
    assert "replay_ok" not in out  # counterfactuals don't claim fidelity


def test_replay_rejects_headerless_log(tmp_path, capsys):
    path = tmp_path / "old.jsonl"
    path.write_text('{"kind": "task_spawn", "seq": 1}\n')
    assert main(["replay", str(path)]) == 1
    assert "no log_header" in capsys.readouterr().out


def test_replay_reports_divergence_with_seq(tmp_path, capsys):
    import json as _json
    path = tmp_path / "run.events.jsonl"
    main(["run", "--blocks", "24", "--tolerance", "0",
          "--events-out", str(path)])
    capsys.readouterr()
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        e = _json.loads(line)
        if e.get("kind") in ("check_pass", "check_fail") \
                and e.get("error") is not None:
            e["error"] += 1.0
            lines[i] = _json.dumps(e)
            break
    path.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(path)]) == 1
    out = capsys.readouterr().out
    assert "DIVERGED" in out and "seq" in out


def test_replay_events_out_rerecords(tmp_path, capsys):
    src = tmp_path / "run.events.jsonl"
    dst = tmp_path / "replayed.events.jsonl"
    main(["run", "--blocks", "24", "--tolerance", "0",
          "--events-out", str(src)])
    capsys.readouterr()
    assert main(["replay", str(src), "--events-out", str(dst)]) == 0
    assert dst.exists()
    assert main(["replay", str(dst)]) == 0  # the re-recording replays too


def test_docstring_subcommands_exist():
    """Every `repro <sub>` the CLI docstring advertises is registered."""
    import re
    import repro.cli as cli
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a.choices, dict) and "run" in a.choices)
    known = set(sub.choices)
    advertised = set(re.findall(r"^\s*repro ([a-z][a-z0-9_]*)", cli.__doc__,
                                re.MULTILINE))
    assert advertised, "CLI docstring lists no subcommands?"
    missing = advertised - known
    assert not missing, f"docstring advertises unknown subcommands: {missing}"


def test_closed_stdout_exits_quietly():
    """`repro list | head -0`: a reader that went away is no crash."""
    import os
    import pathlib as _pl
    import subprocess
    import sys
    src = _pl.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    r, w = os.pipe()
    os.close(r)  # no reader: the first write fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "repro.cli", "list"],
                              stdout=w, stderr=subprocess.PIPE, env=env,
                              text=True, timeout=60)
    finally:
        os.close(w)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert "BrokenPipeError" not in proc.stderr
    assert proc.returncode == 141
