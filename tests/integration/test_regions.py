"""Region tasks on the live executors: same bytes, per-block accounting.

Live executors run ``count`` and ``encode`` as region tasks over up to K
consecutive blocks (``repro.huffman.pipeline.region_blocks``); the
simulated executor keeps one task per block. Whatever the region
boundaries, every live run must

* assemble output byte-identical to the sim reference,
* count wasted encodes per block, not per task: every block encoded by a
  destroyed version is one wasted encode, and
* leave no shared-memory segment behind.

Block counts are chosen so n is a multiple of none of K (32 at 4 KB),
``reduce_ratio`` (16) or ``offset_fanout`` (64): the last region of a
group is short. The cases are a commit (txt), a forced rollback (pdf at
tolerance 0) and a destroy that lands while an encode region is in
flight, held there by a gate on the first encoded block.
"""

import functools
import glob
import os
import time

import pytest

from repro.core.decisions import LiveDecisionSource
from repro.core.manager import SpeculationManager
from repro.experiments.config import RunConfig
from repro.experiments.runner import run_huffman
from repro.huffman import tasks as huffman_tasks
from repro.huffman.pipeline import HuffmanPipeline, region_blocks
from repro.sre.worker_pool import PoolSettings, WorkerPoolServer

pytestmark = [pytest.mark.slow, pytest.mark.procs, pytest.mark.threaded]

_SIZES = (1, 7, 23, 130)
_CASES = {
    "commit": dict(workload="txt", seed=3),
    "rollback": dict(workload="pdf", seed=5, tolerance=0.0),
}
_EXECUTORS = {
    "threads": dict(executor="threads"),
    "procs-shm": dict(executor="procs", transport="shm"),
    "procs-pickle": dict(executor="procs", transport="pickle"),
    "dist": dict(executor="dist", transport="pickle"),
}


@pytest.fixture(scope="module")
def pool():
    srv = WorkerPoolServer(PoolSettings()).start()
    yield srv
    srv.stop()


def _shm_names():
    return set(glob.glob(f"/dev/shm/repro-{os.getpid()}-*"))


@functools.lru_cache(maxsize=None)
def _sim_digest(case: str, n_blocks: int) -> str:
    return run_huffman(config=RunConfig(
        n_blocks=n_blocks, executor="sim", **_CASES[case])).output_sha256


def _run_live(executor: str, case: str, n_blocks: int, pool,
              **kw) -> object:
    opts = dict(_EXECUTORS[executor])
    if opts["executor"] == "dist":
        opts["pool"] = f"127.0.0.1:{pool.port}"
    # The default 2 ms feed gap leaves the first prediction ample time to
    # land before the final update, as it always does in sim.
    return run_huffman(config=RunConfig(
        n_blocks=n_blocks, workers=2, **_CASES[case], **opts), **kw)


def _span(name: str) -> int:
    """Blocks one count / encode task covered, from its name."""
    tail = name.rsplit(":", 1)[1]
    first, _, last = tail.partition("-")
    return int(last or first) - int(first) + 1


def _encode_ends(report, kind: str) -> list[dict]:
    return [e for e in report.events.events()
            if e["kind"] == kind and e["task"].startswith("encode:")]


def _assert_region_invariants(report, case: str, n_blocks: int, before):
    assert report.roundtrip_ok
    assert report.output_sha256 == _sim_digest(case, n_blocks)
    k = region_blocks("procs", 4096)
    done = _encode_ends(report, "task_done")
    assert all(_span(e["task"]) <= k for e in done)
    # One authoritative encode per block; every other block a completed
    # region encoded belonged to a destroyed version: one waste each.
    encoded = sum(_span(e["task"]) for e in done)
    assert report.result.wasted_encodes == encoded - n_blocks
    assert report.metrics.value("blocks_committed") == n_blocks
    assert report.metrics.gauge("shm_segments").value() == 0
    leaked = _shm_names() - before
    assert not leaked, f"leaked segments: {sorted(leaked)}"


@pytest.mark.parametrize("n_blocks", _SIZES)
@pytest.mark.parametrize("case", sorted(_CASES))
@pytest.mark.parametrize("executor", sorted(_EXECUTORS))
def test_region_run_matches_sim(executor, case, n_blocks, pool):
    before = _shm_names()
    report = _run_live(executor, case, n_blocks, pool)
    _assert_region_invariants(report, case, n_blocks, before)
    if case == "rollback" and n_blocks == 130:
        assert report.result.wasted_encodes > 0


# ---------------------------------------------------------------------------
# a destroy that lands while an encode region runs
# ---------------------------------------------------------------------------

_GATE_DIR: str | None = None
_encode_block = huffman_tasks.encode_block


def _gated_encode_block(data, tree):
    """The first block any process encodes waits for the first rollback.

    Workers fork after the patch, so they inherit it and ``_GATE_DIR``;
    claiming the gate with ``O_EXCL`` makes "first" global across
    processes and threads.
    """
    try:
        os.close(os.open(os.path.join(_GATE_DIR, "claimed"),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return _encode_block(data, tree)
    deadline = time.monotonic() + 30.0
    while not os.path.exists(os.path.join(_GATE_DIR, "rolled_back")):
        if time.monotonic() > deadline:
            break
        time.sleep(0.002)
    return _encode_block(data, tree)


class _FirstVersionVerdictsAfterAnEncode(LiveDecisionSource):
    """Delivers v1's verdicts only once one of v1's encode regions has
    finished. The gated region cannot finish before the rollback, so at
    tolerance 0 the destroy always finds a finished region of the doomed
    version to waste besides the one it reaps, however loaded the host."""

    def __init__(self) -> None:
        self.parked: list | None = []  # None once v1 has encoded

    def bind(self, manager) -> None:
        self.spec = manager.spec
        self.manager = manager

    def on_verdict(self, manager, version, index, ref_value, outs) -> None:
        if version.vid == 1 and self.parked is not None:
            self.parked.append((version, index, ref_value, outs))
            return
        super().on_verdict(manager, version, index, ref_value, outs)

    def encoded(self, version) -> None:
        if version is None or version.vid != 1 or self.parked is None:
            return
        parked, self.parked = self.parked, None
        for args in parked:
            self.manager._process_verdict(*args)


@pytest.mark.parametrize("executor", sorted(_EXECUTORS))
def test_destroy_lands_while_encode_region_in_flight(executor, pool, tmp_path,
                                                     monkeypatch):
    """pdf at tolerance 0: the first speculative version's first encode
    region is held in its worker until the version is rolled back, so
    the destroy always finds it running, and the version's verdicts are
    held until another of its regions has finished. The running region
    is reaped whole — none of its blocks count as encoded or wasted —
    the finished one is wasted, and the run still commits the sim
    reference's bytes."""
    monkeypatch.setattr(__name__ + "._GATE_DIR", str(tmp_path))
    monkeypatch.setattr(huffman_tasks, "encode_block", _gated_encode_block)
    decisions = _FirstVersionVerdictsAfterAnEncode()
    encode_done = HuffmanPipeline._encode_done

    def _encode_done_then_release(self, version, outs):
        encode_done(self, version, outs)
        decisions.encoded(version)

    monkeypatch.setattr(HuffmanPipeline, "_encode_done",
                        _encode_done_then_release)
    rollback = SpeculationManager._rollback

    def _rollback_then_open_gate(self, version):
        rollback(self, version)
        (tmp_path / "rolled_back").touch()

    monkeypatch.setattr(SpeculationManager, "_rollback",
                        _rollback_then_open_gate)
    before = _shm_names()
    report = _run_live(executor, "rollback", 130, pool, decisions=decisions)
    assert decisions.parked is None
    assert (tmp_path / "rolled_back").exists()
    _assert_region_invariants(report, "rollback", 130, before)
    in_flight = [e for e in _encode_ends(report, "task_abort")
                 if e.get("while_running")]
    assert in_flight, "no encode region was running when the destroy landed"
    assert report.result.wasted_encodes > 0
