"""Unit tests for tools/bench_gate.py (the CI bench regression gate).

The CLI round-trip (a fresh doc gates against itself) lives in
test_cli.py; these tests exercise ``compare()`` directly, in particular
the zero-baseline rule: a relative change against 0 is undefined, and a
naive ``(cur - base) / base`` guard of 0.0% would wave through any
regression from a zero baseline (0 rollbacks -> 12 must FAIL a
zero-tolerance, lower-is-better gate).
"""

import importlib.util
import json
import pathlib

_GATE = pathlib.Path(__file__).resolve().parents[2] / "tools" / "bench_gate.py"
_spec = importlib.util.spec_from_file_location("bench_gate", _GATE)
bench_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gate)

LOWER = {"max_regression": 0.0, "higher_is_better": False}
HIGHER = {"max_regression": 0.2, "higher_is_better": True}


def _doc(metrics, gate=None):
    return {"metrics": metrics, "gate": gate or {}}


def test_zero_baseline_regression_fails_lower_is_better():
    base = _doc({"rollbacks": 0.0}, {"rollbacks": LOWER})
    (line,) = bench_gate.compare(base, _doc({"rollbacks": 12.0}))
    assert line.startswith("FAIL rollbacks")


def test_zero_baseline_unchanged_passes():
    base = _doc({"rollbacks": 0.0}, {"rollbacks": LOWER})
    (line,) = bench_gate.compare(base, base)
    assert line.startswith("ok rollbacks")


def test_zero_baseline_improvement_passes_higher_is_better():
    base = _doc({"throughput": 0.0}, {"throughput": HIGHER})
    (line,) = bench_gate.compare(base, _doc({"throughput": 5.0}))
    assert line.startswith("ok throughput")


def test_zero_baseline_drop_fails_higher_is_better():
    base = _doc({"throughput": 0.0}, {"throughput": HIGHER})
    (line,) = bench_gate.compare(base, _doc({"throughput": -1.0}))
    assert line.startswith("FAIL throughput")


def test_nonzero_regression_gates_on_the_threshold():
    base = _doc({"throughput": 100.0}, {"throughput": HIGHER})
    (fail,) = bench_gate.compare(base, _doc({"throughput": 75.0}))
    (ok,) = bench_gate.compare(base, _doc({"throughput": 85.0}))
    assert fail.startswith("FAIL") and ok.startswith("ok")


def test_improvements_always_pass():
    base = _doc({"rollbacks": 3.0}, {"rollbacks": LOWER})
    (line,) = bench_gate.compare(base, _doc({"rollbacks": 0.0}))
    assert line.startswith("ok")


def test_missing_metric_fails():
    base = _doc({"throughput": 1.0}, {"throughput": HIGHER})
    (line,) = bench_gate.compare(base, _doc({}))
    assert line.startswith("FAIL throughput: missing")


def test_main_exit_codes(tmp_path, capsys):
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    base.write_text(json.dumps(_doc({"rollbacks": 0.0},
                                    {"rollbacks": LOWER})))
    cur.write_text(json.dumps(_doc({"rollbacks": 3.0})))
    assert bench_gate.main(["--baseline", str(base),
                            "--current", str(cur)]) == 1
    assert "bench gate: FAILED" in capsys.readouterr().out
    assert bench_gate.main(["--baseline", str(base),
                            "--current", str(base)]) == 0
    assert "bench gate: passed" in capsys.readouterr().out


def test_bench_sim_leg_is_pinned_exactly():
    """`repro bench`'s simulated-clock leg (txt, 64 blocks, seed 0, sim)
    is deterministic, so tier-1 pins it exactly where CI's gate lets it
    move 20 %: the virtual completion time, the throughput it implies,
    zero rollbacks — and the committed baseline records the same."""
    from repro.experiments.bench import _sim_config
    from repro.experiments.runner import run_huffman

    summary = run_huffman(config=_sim_config(0, 64, events=True)).summary
    assert summary.completion_time_us == 2347.7999999999997
    assert 64 / (summary.completion_time_us / 1e6) == 27259.562143283078
    assert summary.rollbacks == 0
    baseline = json.loads((_GATE.parents[1] / "BENCH_huffman.json")
                          .read_text())["metrics"]
    assert baseline["virtual_completion_us"] == summary.completion_time_us
    assert baseline["rollbacks"] == summary.rollbacks
