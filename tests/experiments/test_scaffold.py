"""The shared run scaffold (repro.experiments.scaffold.run_app).

One lifecycle serves every app, so its guarantees are checked once per
app here: the executor is shut down on every exit path of a live run,
``metrics_out`` and ``verify_roundtrip`` mean the same thing for every
app, and the sim-only apps reject what they cannot run.
"""

import json
import multiprocessing
import threading

import pytest

from repro.errors import ExperimentError
from repro.experiments.config import RunConfig
from repro.experiments.jobs import JobResources, run_job
from repro.experiments.runner import HuffmanApp, run_huffman
from repro.filterapp.runner import FilterApp
from repro.kmeansapp.runner import KMeansApp

_APPS = ("huffman", "filter", "kmeans")


def _worker_threads() -> set[threading.Thread]:
    # Thread objects, not names: a leaked sre-worker-0 from an earlier
    # run must not mask a new one under the same name.
    return {t for t in threading.enumerate()
            if t.name.startswith("sre-worker-")}


def _overlong_source():
    for _ in range(9):  # one more than the declared 8
        yield b"x" * 4096


def _raising_source():
    for _ in range(3):
        yield b"x" * 4096
    raise RuntimeError("source broke mid-stream")


@pytest.mark.parametrize("source", [_overlong_source, _raising_source],
                         ids=["overlong", "raising"])
@pytest.mark.parametrize("executor", ["threads", "procs"])
def test_failed_live_run_leaves_no_executor_behind(executor, source):
    threads_before = _worker_threads()
    children_before = set(multiprocessing.active_children())
    cfg = RunConfig(workload="txt", n_blocks=8, io="live", executor=executor,
                    workers=2)
    with pytest.raises((ExperimentError, RuntimeError)):
        run_huffman(cfg, resources=JobResources(block_source=source()))
    assert _worker_threads() - threads_before == set()
    assert set(multiprocessing.active_children()) - children_before == set()


@pytest.mark.parametrize("app", _APPS)
def test_metrics_out_written_for_every_app(app, tmp_path):
    path = tmp_path / f"{app}.json"
    run_job(RunConfig.for_app(app, n_blocks=8, metrics_out=str(path)))
    assert path.exists()
    doc = json.loads(path.read_text())
    assert doc["meta"]["app"] == app


@pytest.mark.parametrize("app", _APPS)
def test_verify_roundtrip_flag_honoured_for_every_app(app):
    on = run_job(RunConfig.for_app(app, n_blocks=8))
    off = run_job(RunConfig.for_app(app, n_blocks=8, verify_roundtrip=False))
    assert on.roundtrip_ok is True
    assert off.roundtrip_ok is None
    assert off.output_sha256 == on.output_sha256


@pytest.mark.parametrize("app_cls, check", [
    (HuffmanApp, "huffman round-trip check failed"),
    (FilterApp, "filter output check failed"),
    (KMeansApp, "kmeans labels check failed"),
], ids=_APPS)
def test_failed_verification_names_the_check(app_cls, check, monkeypatch):
    monkeypatch.setattr(app_cls, "verify", lambda self, pipeline: False)
    with pytest.raises(ExperimentError, match=check):
        run_job(RunConfig.for_app(app_cls.name, n_blocks=8))


@pytest.mark.parametrize("app", ["filter", "kmeans"])
def test_sim_only_apps_reject_live_executors_and_io(app):
    with pytest.raises(ExperimentError, match="simulated executor only"):
        run_job(RunConfig.for_app(app, n_blocks=8, executor="threads"))
    with pytest.raises(ExperimentError, match="simulated executor only"):
        run_job(RunConfig.for_app(app, n_blocks=8, io="live"))
