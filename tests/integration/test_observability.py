"""End-to-end observability: metrics and traces across executor back-ends.

The acceptance bar for the observability layer: every executor back-end
produces (a) a Chrome trace, drawn from the flight recorder by the
traceview exporters, with one span per task end, and (b) a metrics snapshot whose speculation counters agree with
the SpeculationManager's own SpeculationStats (double-entry accounting —
both are incremented at the same sites, so any divergence is a bug).
"""

import json

import pytest

from repro.experiments.runner import RunConfig, run_huffman
from repro.huffman.pipeline import region_blocks
from repro.obs.traceview import ascii_gantt, to_chrome_trace
from repro.obs.exporters import load_json_snapshot

pytestmark = pytest.mark.slow


def _run(metrics=None, **kw):
    return run_huffman(config=RunConfig(**kw), metrics=metrics)

_LIVE = dict(workload="txt", n_blocks=24, seed=3, workers=2,
             feed_gap_s=0.0005)


def _assert_spec_counters_match(report):
    """Registry speculation counters == the manager's final SpecStats."""
    stats = report.result.spec_stats
    reg = report.metrics
    assert reg.value("spec_speculations") == stats["speculations"]
    assert reg.value("spec_commits") == stats["commits"]
    assert reg.value("spec_rollbacks") == stats["rollbacks"]
    assert reg.value("spec_checks", verdict="pass") == stats["checks_passed"]
    assert reg.value("spec_checks", verdict="fail") == stats["checks_failed"]
    assert reg.value("spec_recomputes") == stats["recomputes"]


def _assert_trace_roundtrips(report):
    doc = json.loads(to_chrome_trace(report.events))
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert spans, "live run produced no task spans"
    kinds = {e["tid"] for e in spans}
    assert "encode" in kinds and "count" in kinds
    assert "encode" in ascii_gantt(report.events)
    # one span per task end, in end order; a task that ran on a worker
    # (every done, every abort reaped while running) names that worker
    ends = [e for e in report.events.events()
            if e["kind"] in ("task_done", "task_abort")]
    assert [s["name"] for s in spans] == [e["task"] for e in ends]
    for span, end in zip(spans, ends):
        if end["kind"] == "task_done":
            assert span["args"]["worker"] == end["worker"]
        elif end.get("while_running"):
            assert "worker" in span["args"]


@pytest.mark.parametrize("executor", ["sim", "threads", "procs"])
def test_metrics_match_spec_stats_per_executor(executor):
    if executor == "sim":
        report = _run(workload="txt", n_blocks=24, seed=3)
    else:
        report = _run(executor=executor, **_LIVE)
    assert report.roundtrip_ok
    _assert_spec_counters_match(report)
    _assert_trace_roundtrips(report)


@pytest.mark.parametrize("executor", ["sim", "threads", "procs"])
def test_task_accounting_per_executor(executor):
    """Completed-task counters and latency histograms populate everywhere."""
    kwargs = dict(_LIVE, executor=executor) if executor != "sim" else dict(
        workload="txt", n_blocks=24, seed=3)
    report = _run(**kwargs)
    reg = report.metrics
    completed = (reg.value("sre_tasks_completed", speculative="yes")
                 + reg.value("sre_tasks_completed", speculative="no"))
    assert completed > 0
    # every completed task contributed one latency observation
    hist = reg.get("sre_task_us")
    total_obs = sum(s["count"] for s in hist.snapshot_series())
    assert total_obs == completed
    # encode tasks are part of every pipeline run
    assert hist.labels(kind="encode").count() > 0


def _regions(n_blocks: int, group: int, k: int) -> int:
    """Region tasks over ``n_blocks``: K-block runs inside each group."""
    return sum(-(-min(group, n_blocks - start) // k)
               for start in range(0, n_blocks, group))


def _done(report, kind: str) -> int:
    return sum(1 for e in report.events.events()
               if e["kind"] == "task_done" and e["task"].startswith(kind + ":"))


def test_procs_nonspec_counters_equal_sim():
    """Cross-process aggregation: sim and procs commit the same blocks and
    observe one latency each. Their task populations differ by design —
    sim runs one count / encode per block, procs one per region of up to
    K blocks — so the live population is pinned to the region formula."""
    n, k = 24, region_blocks("procs", 4096)
    sim = _run(workload="txt", n_blocks=n, seed=3, speculative=False)
    procs = _run(workload="txt", n_blocks=n, seed=3,
                        speculative=False, executor="procs", workers=2,
                        feed_gap_s=0.0005)
    for report in (sim, procs):
        assert report.metrics.value("blocks_committed") == n
        latency = report.metrics.get("block_latency_us")
        assert sum(s["count"] for s in latency.snapshot_series()) == n
    for report, kk in ((sim, 1), (procs, k)):
        assert _done(report, "count") == _regions(n, 16, kk)
        assert _done(report, "encode") == _regions(n, 64, kk)
    # Everything but count and encode is the same population.
    fused = (n - _regions(n, 16, k)) + (n - _regions(n, 64, k))
    assert procs.metrics.value("sre_tasks_completed", speculative="no") == \
        sim.metrics.value("sre_tasks_completed", speculative="no") - fused
    assert procs.metrics.value("sre_tasks_completed", speculative="yes") == 0


def test_procs_worker_counters_are_harvested():
    """Worker-process registries come home over the pipe on shutdown:
    the per-worker task counters must sum to the payloads shipped."""
    report = _run(workload="txt", n_blocks=24, seed=3,
                         executor="procs", workers=2, feed_gap_s=0.0005)
    reg = report.metrics
    shipped = reg.value("procs_tasks_shipped")
    assert shipped > 0
    worker_counts = reg.get("procs_worker_tasks")
    assert worker_counts is not None, "worker snapshots were not merged"
    executed = sum(s["value"] for s in worker_counts.snapshot_series())
    skips = reg.get("procs_worker_abort_skips")
    skipped = (sum(s["value"] for s in skips.snapshot_series())
               if skips is not None else 0)
    assert executed + skipped == shipped
    # worker-side body timings came home too
    body = reg.get("procs_worker_body_us")
    assert body is not None
    assert sum(s["count"] for s in body.snapshot_series()) == executed


def test_metrics_out_writes_final_snapshot(tmp_path):
    """A metrics_out run leaves a loadable snapshot on disk that
    agrees with the in-memory registry's final state."""
    path = tmp_path / "run.metrics.json"
    report = _run(workload="txt", n_blocks=16, seed=0,
                         metrics_out=str(path))
    on_disk = load_json_snapshot(path.read_text())
    # self-describing export: the run's parameters ride along
    assert on_disk.pop("meta") == report.run_config.to_dict()
    # the final flush happens after the run drains, so disk == memory
    assert on_disk == report.metrics.snapshot()


def test_shared_registry_aggregates_runs():
    """Passing one registry to several runs accumulates their counters."""
    from repro.obs.metrics import MetricsRegistry
    reg = MetricsRegistry()
    _run(workload="txt", n_blocks=16, seed=0, metrics=reg)
    once = reg.value("blocks_committed")
    _run(workload="txt", n_blocks=16, seed=1, metrics=reg)
    assert reg.value("blocks_committed") == 2 * once == 32
