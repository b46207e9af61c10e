"""The serve daemon end to end: served == one-shot, isolation holds.

The acceptance bar for `repro serve`:

* a served job produces the **byte-identical** ``output_sha256`` a
  one-shot run of the same config produces (same code path, warm or
  cold);
* the warm substrate leaks nothing — after jobs drain, the daemon's
  shared BlockStore holds zero refs;
* one tenant's worker-killing payloads trip *its* breaker and poison
  *its* lane while a concurrent healthy tenant completes normally.
"""

import os
import signal
import threading
import time
from collections import Counter

import pytest

from repro.client import JobRejected, ServeClient, ServeError
from repro.experiments.config import RunConfig
from repro.experiments.jobs import run_job
from repro.serve.server import ServeSettings, SpeculationServer

pytestmark = pytest.mark.slow


@pytest.fixture()
def server(request):
    settings = getattr(request, "param", None) or ServeSettings(job_workers=2)
    srv = SpeculationServer(settings).start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    with ServeClient(port=server.port) as c:
        yield c


_HUFF = {"app": "huffman", "workload": "txt", "n_blocks": 16,
         "executor": "procs", "workers": 2, "transport": "shm", "seed": 0}
_KMEANS = {"app": "kmeans", "n_blocks": 16, "seed": 0}


def _one_shot_sha(config: dict) -> str:
    cfg = dict(config)
    return run_job(RunConfig.for_app(cfg.pop("app"), **cfg)).output_sha256


def test_ping(client):
    reply = client.ping()
    assert reply["ok"] and reply["pid"] > 0


def test_two_tenants_mixed_apps_byte_identical_and_no_leaks(server, client):
    """Tenants submit huffman (warm procs+shm) and kmeans (sim)
    concurrently; each served output is byte-identical to its one-shot
    equivalent and the warm arenas end the day empty."""
    jobs = {
        "alice": client.submit(_KMEANS, tenant="alice"),
        "bob": client.submit(_HUFF, tenant="bob"),
    }
    reports = {t: client.result(j, timeout_s=180.0) for t, j in jobs.items()}
    assert reports["alice"]["output_sha256"] == _one_shot_sha(_KMEANS)
    assert reports["bob"]["output_sha256"] == _one_shot_sha(_HUFF)
    assert reports["alice"]["app"] == "kmeans"
    assert reports["bob"]["app"] == "huffman"
    assert server.store.live_refs == 0
    stats = client.stats()
    assert stats["store"]["live_refs"] == 0
    assert stats["admission"]["inflight_total"] == 0


def test_warm_lane_reused_across_jobs(server, client):
    """The second procs job of a tenant rides the first job's worker
    pool — asserted through the lane-reuse counter, not timing."""
    for _ in range(2):
        job = client.submit(_HUFF, tenant="bob")
        client.result(job, timeout_s=180.0)
    assert server.metrics.value("serve_lane_spawns") == 1
    assert server.metrics.value("serve_lane_reuses") == 1
    (lane,) = server.lanes.stats()
    assert lane["jobs_served"] == 2 and not lane["in_use"]


def test_served_equals_one_shot_across_seeds(server, client):
    """Spot-check determinism through the service for sim configs."""
    for seed in (0, 7):
        cfg = dict(_KMEANS, seed=seed)
        job = client.submit(cfg, tenant="alice")
        assert client.result(job)["output_sha256"] == _one_shot_sha(cfg)


@pytest.mark.parametrize("server", [ServeSettings(
    job_workers=2, breaker_threshold=1, breaker_cooldown_s=600.0,
)], indirect=True)
def test_breaker_quarantines_crash_tenant_healthy_tenant_unaffected(
        server, client):
    """The §V resilience scenario: a tenant whose payloads kill workers
    is circuit-broken after one crash-failure; a concurrent healthy
    tenant's job completes byte-identical to its sim one-shot."""
    evil_cfg = {"app": "huffman", "workload": "txt", "n_blocks": 4,
                "executor": "procs", "workers": 1, "seed": 0,
                "fault_plan": "kill@1!"}
    evil_job = client.submit(evil_cfg, tenant="evil")
    good_job = client.submit(_KMEANS, tenant="good")
    # The poisoned job fails (its tasks are quarantined after repeated
    # worker deaths); the failure is crash-type and feeds the breaker.
    with pytest.raises(ServeError, match="failed"):
        client.result(evil_job, timeout_s=180.0)
    assert client.status(evil_job)["state"] == "failed"
    assert server.admission.breaker_state("evil") == "open"
    assert server.metrics.value("serve_breaker_opens", tenant="evil") == 1
    # Its lane was poisoned (dead/degraded seats) and dropped.
    assert server.metrics.value("serve_lane_drops") == 1
    assert server.lanes.stats() == []
    # Further submissions are refused instantly.
    with pytest.raises(JobRejected) as exc:
        client.submit(evil_cfg, tenant="evil")
    assert exc.value.reason == "circuit_open"
    # The healthy neighbour never noticed.
    report = client.result(good_job, timeout_s=180.0)
    assert report["output_sha256"] == _one_shot_sha(_KMEANS)
    assert server.admission.breaker_state("good") == "closed"
    assert server.store.live_refs == 0


@pytest.mark.parametrize("server", [ServeSettings(
    job_workers=1, breaker_threshold=1, breaker_cooldown_s=0.01,
)], indirect=True)
def test_third_breaker_open_flags_a_flapping_tenant(
        server, client, monkeypatch):
    """Three breaker opens for one tenant inside the flap window: the
    daemon runs the anomaly module's breaker-flap detector over its own
    ``breaker_open`` events, emits ``anomaly_breaker_flap`` and lists
    the warning in the stats op. Each job fails fast on bad geometry;
    its failure is judged crash-type so the breaker sees it without
    killing a worker."""
    monkeypatch.setattr(SpeculationServer, "_looks_like_crash",
                        staticmethod(lambda registry: True))
    bad = {"app": "huffman", "workload": "txt", "n_blocks": 16,
           "executor": "sim", "block_size": -1}
    for opens in (1, 2, 3):
        assert not client.stats()["warnings"]
        job = client.submit(bad, tenant="flappy")
        with pytest.raises(ServeError, match="failed"):
            client.result(job, timeout_s=60.0)
        assert server.admission.breaker_state("flappy") == "open"
        assert server.metrics.value("serve_breaker_opens",
                                    tenant="flappy") == opens
        time.sleep(0.05)  # past the cooldown: the next job is the probe
    (warning,) = client.stats()["warnings"]
    assert warning.startswith("breaker_flap: ") and "'flappy'" in warning
    flaps = [e for e in server.events.events()
             if e["kind"] == "anomaly_breaker_flap"]
    assert [(e["tenant"], e["opens"]) for e in flaps] == [("flappy", 3)]


def test_plain_failure_does_not_open_breaker(server, client):
    """A job that fails cleanly at run time (bad geometry — no worker
    was harmed) never feeds the breaker, however often it happens."""
    bad = {"app": "huffman", "workload": "txt", "n_blocks": 16,
           "executor": "sim", "block_size": -1}
    for _ in range(3):
        job = client.submit(bad, tenant="clumsy")
        with pytest.raises(ServeError, match="failed"):
            client.result(job, timeout_s=60.0)
    assert server.admission.breaker_state("clumsy") == "closed"
    # a malformed config dict is refused before admission, also breaker-free
    with pytest.raises(JobRejected) as exc:
        client.submit({"app": "huffman", "n_blockz": 8}, tenant="clumsy")
    assert exc.value.reason == "bad_config"
    assert server.admission.breaker_state("clumsy") == "closed"


@pytest.mark.parametrize("server", [ServeSettings(
    job_workers=1, max_tenant_jobs=1, queue_limit=2, stream_timeout_s=60.0,
)], indirect=True)
def test_bulkhead_and_queue_backpressure(server, client):
    """A held-open live job occupies its tenant's bulkhead slot; the
    tenant gets tenant_busy, and once the global queue fills other
    tenants get queue_full — until the slot frees."""
    live = {"app": "huffman", "io": "live", "n_blocks": 4,
            "executor": "threads", "workers": 2, "verify_roundtrip": False}
    held = client.submit(live, tenant="alice")
    with pytest.raises(JobRejected) as exc:
        client.submit(_KMEANS, tenant="alice")
    assert exc.value.reason == "tenant_busy"
    queued = client.submit(_KMEANS, tenant="bob")  # fills the global queue
    with pytest.raises(JobRejected) as exc:
        client.submit(_KMEANS, tenant="carol")
    assert exc.value.reason == "queue_full"
    # Feed the held job; completion frees the slots again.
    for i in range(4):
        client.send_block(held, i, bytes([i]) * 4096)
    client.close_stream(held)
    assert client.result(held, timeout_s=120.0)["outcome"]
    assert client.result(queued, timeout_s=120.0)["output_sha256"]
    assert client.submit(_KMEANS, tenant="carol")  # admitted now


def test_inline_workload_rides_as_blob_and_matches_one_shot(client):
    """``submit(workload=...)`` ships the bytes as the frame's blob; the
    served digest equals a one-shot run of the same bytes."""
    data = bytes(range(256)) * 64
    config = {"app": "huffman", "block_size": 2048, "seed": 0}
    job = client.submit(config, tenant="alice", workload=data)
    served = client.result(job, timeout_s=120.0)["output_sha256"]
    assert served == run_job(RunConfig.for_app(
        "huffman", workload=data, block_size=2048, seed=0)).output_sha256
    with pytest.raises(JobRejected) as exc:
        client._checked({"op": "submit", "tenant": "alice",
                         "config": config}, (data, data))
    assert exc.value.reason == "bad_config"


def test_live_streaming_job_records_real_arrivals(server, client):
    """io='live': blocks pushed over the socket drive the pipeline and
    the run records their real (monotonic) arrival schedule."""
    blocks = [bytes([65 + i]) * 4096 for i in range(6)]
    job = client.submit({"app": "huffman", "io": "live", "n_blocks": 6,
                         "executor": "threads", "workers": 2},
                        tenant="alice")
    for i, block in enumerate(blocks):
        client.send_block(job, i, block)
    client.close_stream(job)
    report = client.result(job, timeout_s=120.0)
    assert report["roundtrip_ok"] is True
    arrivals = report["extras"]["live_arrivals_us"]
    assert len(arrivals) == 6
    assert arrivals == sorted(arrivals)
    assert report["label"].startswith("live/")


def test_stream_closed_early_fails_job_without_leaking_executor(server,
                                                                client):
    """A client that closes its stream short of the declared block count
    fails the job — and the job's executor is still shut down: no
    coordinator thread outlives it in the daemon."""
    def sre_threads():
        return {t for t in threading.enumerate()
                if t.name.startswith("sre-worker-")}

    before = sre_threads()
    job = client.submit({"app": "huffman", "io": "live", "n_blocks": 4,
                         "executor": "threads", "workers": 2},
                        tenant="alice")
    for i in range(2):
        client.send_block(job, i, bytes([65 + i]) * 4096)
    client.close_stream(job)
    with pytest.raises(ServeError, match="2 blocks, declared 4"):
        client.result(job, timeout_s=120.0)
    assert sre_threads() - before == set()


def test_concurrent_submitters_from_threads(server):
    """Two client threads (separate connections) hammer the daemon;
    every admitted job completes with the right per-seed digest."""
    results: dict[str, list] = {"a": [], "b": []}

    def drive(tenant: str, seeds: list[int]) -> None:
        with ServeClient(port=server.port) as c:
            for seed in seeds:
                job = c.submit(dict(_KMEANS, seed=seed), tenant=tenant)
                results[tenant].append(
                    (seed, c.result(job, timeout_s=120.0)["output_sha256"]))

    threads = [threading.Thread(target=drive, args=("a", [0, 1])),
               threading.Thread(target=drive, args=("b", [2, 3]))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=180.0)
    for tenant, rows in results.items():
        assert len(rows) == 2, f"{tenant} did not finish"
        for seed, sha in rows:
            assert sha == _one_shot_sha(dict(_KMEANS, seed=seed))


def test_unknown_ops_and_jobs_fail_cleanly(client):
    with pytest.raises(ServeError, match="unknown job"):
        client.status("job-999")
    with pytest.raises(ServeError, match="unknown op"):
        client._checked({"op": "frobnicate"})
    with pytest.raises(ServeError, match="unknown op"):
        client._checked({"op": "_op_ping"})  # no private-handler reach


def test_jobs_table_rows(server, client):
    job = client.submit(_KMEANS, tenant="alice")
    client.result(job)
    rows = client.jobs()
    assert [r["job_id"] for r in rows] == [job]
    (row,) = rows
    assert row["state"] == "done"
    assert row["tenant"] == "alice"
    assert row["latency_s"] > 0


def test_metrics_out_publishes_serve_snapshots(tmp_path):
    """`repro serve --metrics-out` keeps a snapshot fresh while the daemon
    runs and leaves a final post-harvest snapshot behind on stop — the
    file `repro top` tails."""
    from repro.obs.exporters import load_json_snapshot
    from repro.obs.top import derive_serve_stats

    path = tmp_path / "serve.metrics.json"
    srv = SpeculationServer(ServeSettings(
        job_workers=1, metrics_out=str(path),
        metrics_interval_s=0.05)).start()
    try:
        with ServeClient(port=srv.port) as c:
            c.result(c.submit(_KMEANS, tenant="alice"))
    finally:
        srv.stop()
    doc = load_json_snapshot(path.read_text())
    serve = derive_serve_stats(doc)
    assert serve is not None
    assert serve["tenants"]["alice"]["done"] == 1.0
    assert serve["stages"][("alice", "execute")]["count"] == 1.0


def _total(registry, name) -> float:
    return sum(s["value"] for s in registry.get(name).snapshot_series())


def test_shared_home_log_counts_each_fact_once(monkeypatch):
    """Two lanes park on the daemon's home runtime and re-bind it after
    every job; one lane serves three jobs, the first of which loses its
    worker. On the home registry and on every job registry, each crash,
    respawn and lost harvest counts once, and the serve_jobs_* and
    serve_lane_* counters equal their events."""
    reports = []

    def run_job_kept(*args, **kwargs):
        reports.append(run_job(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr("repro.serve.server.run_job", run_job_kept)
    crashy = {"app": "huffman", "workload": "txt", "n_blocks": 24,
              "executor": "procs", "workers": 1, "transport": "shm",
              "seed": 3, "feed_gap_s": 0.0005, "fault_plan": "kill@2"}
    calm = dict(crashy, fault_plan=None)
    server = SpeculationServer(ServeSettings(job_workers=1)).start()
    try:
        with ServeClient(port=server.port) as client:
            for tenant, cfg in [("crashy", crashy)] * 3 + [("calm", calm)]:
                client.result(client.submit(cfg, tenant=tenant),
                              timeout_s=180.0)
        # a parked worker dies: the shutdown harvest loses its snapshot
        (calm_lane,) = [lane for lane in server.lanes._lanes
                        if lane.key[0] == "calm"]
        os.kill(calm_lane.supervisor.pids()[0], signal.SIGKILL)
        calm_lane.supervisor.process(0).join(timeout=10.0)
    finally:
        server.stop()
    assert [r.roundtrip_ok for r in reports] == [True] * 4
    crashes = [_total(r.metrics, "procs_worker_crashes") for r in reports]
    assert crashes == [1, 0, 0, 0]
    home = Counter(e["kind"] for e in server.events.events())
    logs = [(server.metrics, home)] + [
        (r.metrics, Counter(e["kind"] for e in r.events.events()
                            if e.get("clock") != "worker"))
        for r in reports]
    for registry, kinds in logs:
        assert _total(registry, "procs_worker_crashes") == kinds["worker_crash"]
        assert registry.value("procs_worker_respawns") == \
            kinds["worker_respawn"]
        assert _total(registry, "procs_worker_harvest_lost") == \
            kinds["worker_harvest_lost"]
    assert home["worker_harvest_lost"] == 1
    m = server.metrics
    assert _total(m, "serve_jobs_submitted") == home["job_submit"] == 4
    assert _total(m, "serve_jobs_finished") == \
        home["job_done"] + home["job_failed"] == 4
    assert m.value("serve_lane_spawns") == home["lane_spawn"] == 2
    assert m.value("serve_lane_reuses") == home["lane_reuse"] == 2
    assert m.gauge("serve_lanes_live").value() == 0
