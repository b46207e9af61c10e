"""The unified Job API: one registry, one config, one result shape."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.config import RunConfig
from repro.experiments.jobs import (JOBS, JobResources, RunReport, job_names,
                                    register_job, run_job)


def test_job_names_cover_all_bundled_apps():
    names = job_names()
    assert {"huffman", "filter", "kmeans"} <= set(names)
    assert names == tuple(sorted(names))


def test_run_job_dispatches_by_app():
    report = run_job(RunConfig.for_app("filter", n_blocks=16))
    assert isinstance(report, RunReport)
    assert report.app == "filter"
    assert report.output_sha256 is not None


def test_run_job_rejects_unknown_app():
    cfg = RunConfig(app="quicksort", n_blocks=8)
    with pytest.raises(ExperimentError, match="unknown app 'quicksort'"):
        run_job(cfg)


def test_run_job_rejects_non_runconfig():
    with pytest.raises(ExperimentError, match="RunConfig"):
        run_job({"app": "huffman"})


def test_register_job_round_trips():
    calls = []

    def fake(config, *, metrics=None, decisions=None, resources=None):
        calls.append(config.app)
        return run_job(RunConfig.for_app("filter", n_blocks=16))

    register_job("fake_app", fake)
    try:
        run_job(RunConfig(app="fake_app", n_blocks=8))
        assert calls == ["fake_app"]
    finally:
        del JOBS["fake_app"]


def test_register_job_validates_name():
    with pytest.raises(ExperimentError):
        register_job("", lambda **kw: None)


def test_for_app_fills_conventional_defaults():
    f = RunConfig.for_app("filter")
    assert (f.app, f.n_blocks, f.step, f.tolerance) == ("filter", 64, 2, 0.02)
    k = RunConfig.for_app("kmeans")
    assert (k.app, k.n_blocks, k.tolerance) == ("kmeans", 48, 0.05)
    h = RunConfig.for_app("huffman", n_blocks=8)
    assert (h.app, h.n_blocks) == ("huffman", 8)
    # explicit kwargs beat the app defaults
    assert RunConfig.for_app("kmeans", tolerance=0.5).tolerance == 0.5


def test_reports_share_one_shape_across_apps():
    reports = [
        run_job(RunConfig.for_app("huffman", workload="txt", n_blocks=16)),
        run_job(RunConfig.for_app("filter", n_blocks=16)),
        run_job(RunConfig.for_app("kmeans", n_blocks=12)),
    ]
    for r in reports:
        assert isinstance(r, RunReport)
        assert r.result.outcome in ("commit", "recompute", "non_speculative")
        assert isinstance(r.latencies, np.ndarray) and r.latencies.size
        assert r.avg_latency > 0
        assert r.completion_time > 0
        assert r.output_sha256 is not None and len(r.output_sha256) == 64
        assert r.metrics is not None
        assert r.run_config is not None
    assert [r.app for r in reports] == ["huffman", "filter", "kmeans"]


@pytest.mark.parametrize("app", ["huffman", "filter", "kmeans"])
def test_cross_app_run_contract(app, tmp_path):
    """Every app goes through the one scaffold: self-describing JSONL
    header, run_result digest equal to the report's, the caller's trace
    context on every event, and a warnings list."""
    from repro.obs.events import read_event_log
    from repro.obs.spans import TraceContext

    path = tmp_path / f"{app}.events.jsonl"
    ctx = TraceContext.mint()
    report = run_job(RunConfig.for_app(app, n_blocks=8, events_out=str(path)),
                     resources=JobResources(trace=ctx))
    header, events = read_event_log(str(path))
    assert header["meta"]["app"] == app
    assert header["meta"]["run_config"]["app"] == app
    results = [e for e in events if e["kind"] == "run_result"]
    assert len(results) == 1
    assert results[0]["output_sha256"] == report.output_sha256
    assert events and all(e.get("trace_id") == ctx.trace_id for e in events)
    assert isinstance(report.warnings, list)
