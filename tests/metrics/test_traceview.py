"""Trace export (chrome JSON + ASCII gantt) from the flight recorder."""

import hashlib
import json

import pytest

from repro.errors import ObservabilityError
from repro.experiments.config import RunConfig
from repro.experiments.fig4 import first_spec_dispatch
from repro.experiments.runner import run_huffman
from repro.obs.events import COORDINATOR_WORKER, EventLog, load_events_jsonl
from repro.obs.traceview import ascii_gantt, to_chrome_trace


def _log(*records) -> EventLog:
    """An EventLog holding ``(t, kind, fields)`` records, in order."""
    now = [0.0]
    log = EventLog(clock=lambda: now[0])
    for t, kind, fields in records:
        now[0] = t
        log.emit(kind, **fields)
    return log


def _trace_with_tasks() -> EventLog:
    return _log(
        (0.0, "task_spawn", dict(task="count:0", task_kind="count")),
        (0.0, "task_spawn", dict(task="encode:0", task_kind="encode",
                                 speculative=True)),
        (0.0, "task_dispatch", dict(task="count:0", worker=0)),
        (5.0, "task_dispatch", dict(task="encode:0", worker=1)),
        (10.0, "task_done", dict(task="count:0", worker=0)),
        (20.0, "spec_predict", dict(version=1, index=1)),
        (45.0, "rollback_done", dict(version=1, tasks_destroyed=3)),
        (50.0, "task_abort", dict(task="encode:0", while_running=True)),
    )


def _x_and_instants(log):
    events = json.loads(to_chrome_trace(log))["traceEvents"]
    return ([e for e in events if e["ph"] == "X"],
            [e for e in events if e["ph"] == "i"])


def test_chrome_trace_is_valid_json_with_spans():
    spans, instants = _x_and_instants(_trace_with_tasks())
    assert len(spans) == 2
    assert len(instants) == 2
    enc = next(e for e in spans if e["name"] == "encode:0")
    assert enc["args"]["aborted"] is True
    assert enc["args"]["speculative"] is True
    assert enc["args"]["worker"] == 1
    assert enc["ts"] == 5.0 and enc["dur"] == 45.0


def test_chrome_trace_lanes_by_kind():
    doc = json.loads(to_chrome_trace(_trace_with_tasks()))
    tids = {e["tid"] for e in doc["traceEvents"]}
    assert {"count", "encode", "speculation"} <= tids


def test_ascii_gantt_lanes_and_marks():
    out = ascii_gantt(_trace_with_tasks(), width=40)
    lines = out.splitlines()
    assert any(l.strip().startswith("count") for l in lines)
    assert any(l.strip().startswith("encode") for l in lines)
    encode_line = next(l for l in lines if "encode" in l)
    assert "!" in encode_line  # aborted work marked


def _trace_with_coordinator() -> EventLog:
    return _log(
        (0.0, "task_spawn", dict(task="count:0", task_kind="count")),
        (0.0, "task_spawn", dict(task="reduce:0", task_kind="reduce")),
        (0.0, "task_dispatch", dict(task="count:0", worker=0)),
        (10.0, "task_done", dict(task="count:0", worker=0)),
        (10.0, "task_dispatch", dict(task="reduce:0", worker=COORDINATOR_WORKER)),
        (12.0, "task_done", dict(task="reduce:0", worker=COORDINATOR_WORKER)),
    )


def test_coordinator_tasks_get_their_own_lane():
    spans, _ = _x_and_instants(_trace_with_coordinator())
    lanes = {e["name"]: e["tid"] for e in spans}
    assert lanes == {"count:0": "count", "reduce:0": "coordinator"}
    reduce = next(e for e in spans if e["name"] == "reduce:0")
    assert reduce["cat"] == "reduce"
    assert reduce["args"]["worker"] == COORDINATOR_WORKER
    text = ascii_gantt(_trace_with_coordinator(), width=24)
    rows = [line.split("|")[0].strip() for line in text.splitlines()[1:]]
    assert rows == ["coordinator", "count"]
    # the kind filter still selects by kind
    only = ascii_gantt(_trace_with_coordinator(), width=24, kinds=["count"])
    assert "coordinator" not in only


def test_ascii_gantt_kind_filter():
    out = ascii_gantt(_trace_with_tasks(), kinds=["count"])
    assert "encode" not in out


def test_ascii_gantt_empty():
    assert ascii_gantt(EventLog()) == "(empty trace)"


def test_export_from_real_run():
    report = run_huffman(config=RunConfig(workload="txt", n_blocks=32,
                                          policy="balanced", step=1, seed=0))
    doc = json.loads(to_chrome_trace(report.events))
    kinds = {e["tid"] for e in doc["traceEvents"]}
    assert {"count", "reduce", "tree", "offset", "encode"} <= kinds
    gantt = ascii_gantt(report.events)
    assert "encode" in gantt


def test_startless_abort_yields_zero_width_span():
    """Regression: a task_abort with no task_dispatch must not vanish.

    A task reaped from a ready queue never dispatches. It should show up
    as a zero-width aborted span, not silently disappear.
    """
    spans, _ = _x_and_instants(_log(
        (0.0, "task_spawn", dict(task="encode:7", task_kind="encode",
                                 speculative=True)),
        (30.0, "task_abort", dict(task="encode:7", was_ready=True)),
    ))
    assert len(spans) == 1
    span = spans[0]
    assert span["name"] == "encode:7"
    assert span["tid"] == "encode"
    assert span["ts"] == 30.0
    assert span["dur"] == 0.001  # clamped minimum width
    assert span["args"]["aborted"] is True
    assert span["args"]["speculative"] is True


def test_startless_done_yields_zero_width_span():
    """An event list without dispatches still shows completions."""
    log = _log(
        (0.0, "task_spawn", dict(task="count:0", task_kind="count")),
        (1.0, "task_dispatch", dict(task="count:0", worker=0)),
        (9.0, "task_done", dict(task="count:0", worker=0)),
    )
    spans, _ = _x_and_instants(
        [e for e in log.events() if e["kind"] != "task_dispatch"])
    assert [s["name"] for s in spans] == ["count:0"]
    assert spans[0]["ts"] == 9.0
    assert spans[0]["args"]["aborted"] is False
    assert spans[0]["args"]["worker"] == 0


def test_startless_spans_reach_ascii_gantt():
    out = ascii_gantt(_log(
        (0.0, "task_spawn", dict(task="count:0", task_kind="count")),
        (10.0, "task_done", dict(task="count:0")),
    ), width=20)
    assert "count" in out


def test_instant_names_keep_the_speculation_labels():
    _, instants = _x_and_instants(_log(
        (1.0, "spec_predict", dict(version=1, index=0)),
        (2.0, "spec_launch", dict(version=1, index=0)),
        (3.0, "check_fail", dict(version=1, index=8, error=0.5)),
        (3.0, "spec_launch", dict(version=2, index=8, reused=True)),
        (4.0, "task_spawn", dict(task="tree:final", task_kind="tree")),
        (5.0, "undo", dict(task="store:3")),
        (6.0, "check_pass", dict(version=2, final=True)),
        (6.0, "spec_commit", dict(version=2)),
        (7.0, "spec_recompute", {}),
    ))
    assert [(e["name"], e["ts"]) for e in instants] == [
        ("speculate:version:1", 1.0), ("check_fail:version:1", 3.0),
        ("speculate:version:2", 3.0), ("undo:store:3", 5.0),
        ("check_pass:version:2", 6.0), ("commit:version:2", 6.0),
        ("recompute:tree", 7.0)]
    assert instants[1]["args"]["error"] == 0.5


# ----------------------------------------------------------------------
# pinned output: seeded 64-block sim runs, digests taken with the
# pre-events exporters; the events-based ones must match byte for byte
# ----------------------------------------------------------------------
_GOLDEN = {
    "txt": dict(
        tolerance=0.01,
        x_sha256="967e0c0b0553652097823b16d7b4a301"
                 "139e9b503f300083cff02cc306b7ef78",
        gantt_sha256="891beda593a93bd1b3dd0773867b2dac"
                     "9d34cbe187080fc2657267474597f7f1",
        instants=[("speculate:version:1", 189.176),
                  ("commit:version:1", 669.4000000000001)]),
    "pdf": dict(
        tolerance=0.0,
        x_sha256="609b5d7eb164c2f5a5f5d91f1e266fa1"
                 "67e7f69cdb16755c7b75a076fb0d8d06",
        gantt_sha256="00f6ee5102c4062473bad53bfe63cd4a"
                     "0038e745e007782592e470cad2b92254",
        instants=[("speculate:version:1", 189.176),
                  ("rollback:version:1", 669.4000000000001),
                  ("recompute:huffman", 669.4000000000001)]),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(_GOLDEN))
def test_sim_charts_match_pinned_digests(workload):
    gold = _GOLDEN[workload]
    report = run_huffman(RunConfig(workload=workload, n_blocks=64, seed=0,
                                   tolerance=gold["tolerance"]))
    spans, instants = _x_and_instants(report.events)
    assert _sha(json.dumps(spans, sort_keys=True)) == gold["x_sha256"]
    assert _sha(ascii_gantt(report.events)) == gold["gantt_sha256"]
    named = {(e["name"], e["ts"]) for e in instants}
    assert set(gold["instants"]) <= named


def test_events_out_file_exports_like_the_ring(tmp_path):
    path = tmp_path / "run.events.jsonl"
    report = run_huffman(RunConfig(workload="pdf", n_blocks=16, seed=0,
                                   tolerance=0.0, events_out=str(path)))
    from_file = load_events_jsonl(str(path))
    assert to_chrome_trace(from_file) == to_chrome_trace(report.events)
    assert ascii_gantt(from_file) == ascii_gantt(report.events)


def test_wrapped_ring_refuses_to_chart():
    report = run_huffman(RunConfig(workload="txt", n_blocks=16, seed=0,
                                   events_capacity=64))
    assert report.events.events()[0]["seq"] > 1
    for export in (to_chrome_trace, ascii_gantt):
        with pytest.raises(ObservabilityError,
                           match="events_capacity.*--events-out"):
            export(report.events)
    with pytest.raises(ObservabilityError, match="events_capacity"):
        first_spec_dispatch(report)


def test_run_without_events_refuses_to_chart():
    report = run_huffman(RunConfig(workload="txt", n_blocks=8, seed=0,
                                   events=False))
    with pytest.raises(ObservabilityError, match="events=False"):
        ascii_gantt(report.events)


# ----------------------------------------------------------------------
# served-job span export (spans_to_chrome_trace)
# ----------------------------------------------------------------------
def _served_spans():
    return [
        {"name": "job", "trace_id": "t" * 32, "span_id": "j",
         "parent_id": None, "t0_us": 0.0, "t1_us": 100.0, "dur_us": 100.0,
         "tenant": "alice", "state": "done"},
        {"name": "execute", "trace_id": "t" * 32, "span_id": "e",
         "parent_id": "j", "t0_us": 10.0, "t1_us": 90.0, "dur_us": 80.0},
        {"name": "worker_exec", "trace_id": "t" * 32, "span_id": "w-1-5",
         "parent_id": "e", "t0_us": 3.0, "t1_us": 8.0, "dur_us": 5.0,
         "clock": "worker", "worker": 1, "status": "ok"},
        {"name": "queue", "trace_id": "t" * 32, "span_id": "q",
         "parent_id": "j", "t0_us": 1.0, "t1_us": None, "dur_us": 0.0},
    ]


def test_spans_to_chrome_trace_splits_daemon_and_worker_clocks():
    from repro.obs.traceview import spans_to_chrome_trace
    doc = json.loads(spans_to_chrome_trace(_served_spans()))
    events = {e["name"]: e for e in doc["traceEvents"]}
    assert events["job"]["pid"] == 1 and events["job"]["tid"] == "job"
    assert events["job"]["cat"] == "serve"
    assert events["job"]["args"]["tenant"] == "alice"
    # worker-clock leaves get their own process group, one lane per worker
    leaf = events["worker_exec"]
    assert leaf["pid"] == 2 and leaf["tid"] == "worker-1"
    assert leaf["cat"] == "worker"
    assert leaf["dur"] == 5.0


def test_spans_to_chrome_trace_marks_open_spans():
    from repro.obs.traceview import spans_to_chrome_trace
    doc = json.loads(spans_to_chrome_trace(_served_spans()))
    queue = next(e for e in doc["traceEvents"] if e["name"] == "queue")
    assert queue["dur"] == 0.001
    assert queue["args"]["open"] is True
