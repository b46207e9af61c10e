"""Smoke tests for the benchmark: each workload at a tiny size prints every
declared metric with its unit, and the oracle counts wrong output.

Run from the repository root:
``PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py``
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.harness import Spans, output_problems
from perfbench.workloads import WORKLOADS, Ctx, Sizes, end_to_end, per_layer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = dict(blocks=48, job_inputs=2)


def _ctx(tmp_path: Path) -> Ctx:
    return Ctx(root=ROOT, out=tmp_path, seed=3, sizes=Sizes(**TINY))


def _result_line(capsys, values: dict, kind: str, oracle) -> dict:
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert run.report(values, units, oracle, {}) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in lines[:-1]), name
    return json.loads(lines[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_prints_every_metric(name, tmp_path, capsys):
    ctx = _ctx(tmp_path)
    values, counts = end_to_end(ctx, name, seconds=1.0)
    assert ctx.oracle.failures == []
    result = _result_line(capsys, values, "end_to_end", ctx.oracle)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_per_layer_prints_every_metric(name, tmp_path, capsys):
    ctx = _ctx(tmp_path)
    spans = Spans(True)
    values = per_layer(ctx, name, spans)
    assert ctx.oracle.failures == []
    result = _result_line(capsys, values, "per_layer", ctx.oracle)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["core.useful_encode_ratio"]["value"] > 0
    names = {s["name"] for s in spans.records}
    assert {"setup", "huffman.encode", "shm.put", "wire.rtt_4k",
            "submit"} <= names


def test_output_problems_flags_roundtrip_and_size():
    assert output_problems(True, 1005, 1000, 0.01) == []
    assert output_problems(False, 1000, 1000, 0.01)
    assert output_problems(None, 1000, 1000, 0.01)
    assert output_problems(True, 1011, 1000, 0.01)


def test_oracle_counts_failed_roundtrip(tmp_path, monkeypatch):
    from repro.huffman.pipeline import HuffmanPipeline

    monkeypatch.setattr(HuffmanPipeline, "verify_roundtrip",
                        lambda self, original: False)
    ctx = _ctx(tmp_path)
    end_to_end(ctx, "stream-txt", seconds=0.1)
    assert ctx.oracle.failed == ctx.oracle.attempted == 1
    assert "round-trip" in ctx.oracle.failures[0]


def test_oracle_counts_out_of_tolerance_size(tmp_path, monkeypatch):
    import perfbench.workloads as wl

    # An "exact" size 5 % below the real one: the committed output now
    # reads 5 % over the exact tree, beyond the 1 % tolerance.
    real = wl.exact_bits
    monkeypatch.setattr(wl, "exact_bits", lambda data: int(real(data) * 0.95))
    ctx = _ctx(tmp_path)
    end_to_end(ctx, "stream-txt", seconds=0.1)
    assert ctx.oracle.failed == ctx.oracle.attempted == 1
    assert "over the exact tree" in ctx.oracle.failures[0]


def test_fails_without_program_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-txt",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
