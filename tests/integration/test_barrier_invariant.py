"""The wait-buffer invariants, read off the events of every app's run.

Huffman, filter and k-means share one commit path
(:class:`~repro.core.stream.SpeculativeStream`), so one test states the
barrier's invariants for all of them, on runs that roll back and on runs
that commit their first speculation:

* every block commits exactly once — flushed from the committed
  version's buffer, or completed by the natural pass, never both;
* a version's ``buffer_flush`` events all come after its ``spec_commit``;
* a rolled-back version flushes nothing.

The committed bytes are pinned too: the stream changed no app's output.
"""

from __future__ import annotations

import re
from collections import Counter

import pytest

from repro.experiments.config import RunConfig
from repro.experiments.jobs import run_job

#: name -> (config, outcome, rolls back?, output_sha256)
RUNS = {
    "huffman-pdf-tol0": (
        RunConfig.for_app("huffman", workload="pdf", n_blocks=64,
                          tolerance=0.0, seed=3),
        "recompute", True,
        "6c1ccebe986149a421ad4dc167a72778e74b08eb9e15e154dc54d2b697515ec6"),
    "huffman-txt": (
        RunConfig.for_app("huffman", workload="txt", n_blocks=64),
        "commit", False,
        "624985ce22b12e65f4ebd266244938e181b281ecd837195ba636733521f88624"),
    "filter": (
        RunConfig.for_app("filter"),
        "commit", True,
        "96d292d6df63d61c40a4c99d87551dc9fdd06f49f060ced157e4134f4eb96b00"),
    "kmeans-drift": (
        RunConfig.for_app("kmeans", drift_blocks=8),
        "commit", True,
        "4206c8f76456d73d7dabd42ec2bc2fcc05e665d8a700fd878adb08bd051d8f13"),
    "kmeans": (
        RunConfig.for_app("kmeans"),
        "commit", False,
        "a98eb1e54ef9dc821571530db1a48ff4cceab22290867b9143e744c83a18a8e9"),
}

#: a natural-pass task for one block or a region: ``encode:nat:3``,
#: ``filter:nat:12``, ``encode:nat:8-15``.
_NATURAL = re.compile(r"^(?:encode|filter|assign):nat:(\d+)(?:-(\d+))?$")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_block_commits_once_and_only_after_its_version(name):
    config, outcome, rolls_back, sha = RUNS[name]
    report = run_job(config)
    events = report.events.events()
    assert report.result.outcome == outcome

    commit_seq = {e["version"]: e["seq"] for e in events
                  if e["kind"] == "spec_commit"}
    destroyed = {e["version"] for e in events if e["kind"] == "destroy_signal"}
    flushes = [e for e in events if e["kind"] == "buffer_flush"]
    assert bool(destroyed) == rolls_back

    committed = Counter(int(e["key"]) for e in flushes)
    for e in events:
        m = _NATURAL.match(e.get("task") or "") if e["kind"] == "task_done" else None
        if m:
            first = int(m.group(1))
            committed.update(range(first, int(m.group(2) or first) + 1))
    assert committed == Counter(range(config.n_blocks))

    for e in flushes:
        assert e["version"] in commit_seq
        assert e["seq"] > commit_seq[e["version"]]
    assert not destroyed & {e["version"] for e in flushes}
    assert not destroyed & set(commit_seq)

    run_result = next(e for e in events if e["kind"] == "run_result")
    assert run_result["output_sha256"] == sha
