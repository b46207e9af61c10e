"""Unit tests for SpeculativeStream on a toy domain.

The toy stream scales each block by a value the update chain refines;
the predictor passes the update through and the validator measures the
relative distance. This isolates the stream's own duties — one pass per
version, the natural pass at most once, fan-out to the live passes,
commit-or-deposit and the authoritative answers — from any app.
"""

import pytest

from repro.core.stream import SpeculationConfig, SpeculativeStream, pass_label
from repro.errors import ExperimentError
from repro.sre.task import Task

from tests.conftest import make_harness


class Toy:
    def __init__(self, *, speculative=True, tolerance=0.01, n_blocks=4):
        self.h = make_harness()
        self.spawned: list[str] = []
        self.stream = SpeculativeStream(
            self.h.runtime, "toy",
            SpeculationConfig(speculative=speculative, step=1, verify_k=2,
                              tolerance=tolerance),
            n_blocks,
            predictor=lambda v, name: Task(name, lambda v=v: {"out": v},
                                           kind="predict"),
            validator=lambda p, c, _r: abs(p - c) / abs(c),
            make_pass=self._pass)

    def _pass(self, scale, version):
        def on_block(i):
            task = Task(f"scale:{pass_label(version)}:{i}",
                        lambda b=self.stream.blocks[i], s=scale: {"out": b * s},
                        speculative=version is not None)
            if version is not None:
                version.register(task)
            task.on_complete.append(
                lambda _t, outs: self.stream.deliver(version, i, outs["out"]))
            self.spawned.append(task.name)
            self.h.runtime.add_task(task)
        return on_block

    def feed(self, *indices):
        for i in indices:
            self.stream.arrive(i, float(i + 1))
            self.stream.block_ready(i)
        self.h.run()

    def offer(self, index, value, is_final=False):
        self.stream.offer(index, value, is_final=is_final)
        self.h.run()


def test_committed_version_flushes_every_block_once():
    toy = Toy()
    toy.feed(0, 1)
    toy.offer(1, 2.0)
    toy.feed(2, 3)
    toy.offer(2, 2.0, is_final=True)
    stream = toy.stream
    assert stream.outcome() == "commit"
    assert stream.valid_versions() == {1}
    assert stream.committed_value == 2.0
    assert stream.committed == {0: 2.0, 1: 4.0, 2: 6.0, 3: 8.0}
    assert toy.spawned == [f"scale:v1:{i}" for i in range(4)]
    assert stream.collector.latencies(stream.valid_versions()).size == 4


def test_rolled_back_pass_is_dropped_and_natural_pass_recomputes():
    toy = Toy()
    toy.feed(0, 1)
    toy.offer(1, 2.0)
    toy.offer(2, 3.0, is_final=True)  # 33 % off: the final check fails
    toy.feed(2, 3)
    stream = toy.stream
    assert stream.outcome() == "recompute"
    assert stream.valid_versions() == {None}
    assert stream.committed_value == 3.0
    assert stream.committed == {0: 3.0, 1: 6.0, 2: 9.0, 3: 12.0}
    assert toy.spawned == ["scale:v1:0", "scale:v1:1", "scale:nat:0",
                           "scale:nat:1", "scale:nat:2", "scale:nat:3"]
    assert stream.collector.wasted_encodes({None}) == 2


def test_without_speculation_the_final_update_opens_the_natural_pass():
    toy = Toy(speculative=False)
    assert toy.stream.manager is None and toy.stream.barrier is None
    toy.feed(0, 1)
    toy.offer(1, 2.0)
    assert toy.spawned == []
    toy.offer(2, 5.0, is_final=True)
    toy.feed(2, 3)
    assert toy.stream.outcome() == "non_speculative"
    assert toy.stream.committed == {0: 5.0, 1: 10.0, 2: 15.0, 3: 20.0}


def test_natural_pass_launches_once():
    toy = Toy(speculative=False)
    toy.offer(1, 5.0, is_final=True)
    with pytest.raises(ExperimentError, match="launched twice"):
        toy.stream.launch_natural(5.0)


def test_pass_bootstraps_once():
    toy = Toy(speculative=False)
    toy.feed(0)
    natural = toy.stream.launch_natural(5.0)
    assert toy.spawned == ["scale:nat:0"]
    with pytest.raises(ExperimentError, match="bootstrapped twice"):
        natural.bootstrap({0})
    assert toy.spawned == ["scale:nat:0"]


def test_a_ready_block_spawns_once_per_pass():
    toy = Toy(speculative=False)
    toy.feed(0)
    toy.stream.launch_natural(5.0)
    toy.stream.block_ready(0)
    assert toy.spawned == ["scale:nat:0"]


def test_unfinished_run_has_no_answers():
    toy = Toy()
    toy.feed(0)
    for answer in (toy.stream.outcome, toy.stream.valid_versions,
                   lambda: toy.stream.committed_value):
        with pytest.raises(ExperimentError, match="not finished"):
            answer()


def test_arrivals_are_checked():
    toy = Toy(n_blocks=2)
    toy.feed(0)
    with pytest.raises(ExperimentError, match="fed twice"):
        toy.stream.arrive(0, 1.0)
    with pytest.raises(ExperimentError, match="out of range"):
        toy.stream.arrive(2, 1.0)
    with pytest.raises(ExperimentError, match="at least one block"):
        Toy(n_blocks=0)
