"""Ablation benches for the design choices DESIGN.md §5 calls out.

Each ablation flips one runtime design decision and measures the cost on a
representative workload, quantifying the paper's qualitative scheduling
arguments (§III-A) on our model.
"""

from repro.experiments.runner import RunConfig, run_huffman
from repro.platforms import CellPlatform


def _txt(**kw):
    return run_huffman(config=RunConfig(workload="txt", n_blocks=256,
                                     policy="balanced", step=1, seed=0, **kw))


def test_ablation_cell_prefetch_depth(benchmark, capsys):
    """Cell multiple-buffering depth: the technique exists to overlay
    communication with computation (§III-A). Without prefetch (one slot),
    every task's DMA serialises after the previous task's compute; with
    four slots, transfers hide behind the current task and both average
    latency and total runtime improve."""

    def run():
        out = {}
        for slots in (1, 4):
            plat = CellPlatform(slots=slots)
            out[slots] = run_huffman(config=RunConfig(
                workload="txt", n_blocks=256, platform=plat,
                policy="conservative", step=1, seed=0,
            ))
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print(f"\ndepth-1: avg {out[1].avg_latency:,.0f} µs, "
              f"runtime {out[1].completion_time:,.0f} µs | "
              f"depth-4: avg {out[4].avg_latency:,.0f} µs, "
              f"runtime {out[4].completion_time:,.0f} µs")
    benchmark.extra_info["depth1_avg_us"] = out[1].avg_latency
    benchmark.extra_info["depth4_avg_us"] = out[4].avg_latency
    assert out[4].avg_latency < out[1].avg_latency
    assert out[4].completion_time < out[1].completion_time


def test_ablation_tolerance_vs_exact(benchmark, capsys):
    """Tolerant vs exact value speculation: with zero tolerance, even the
    statistically stationary TXT workload fails its checks (prefix trees are
    never bit-identical) and speculation degenerates to the recompute path —
    the paper's core argument for tolerance."""

    def run():
        tolerant = _txt()
        exact = _txt(tolerance=0.0)
        return tolerant, exact

    tolerant, exact = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print(f"\ntolerant (1%): outcome={tolerant.result.outcome}, "
              f"avg {tolerant.avg_latency:,.0f} µs | "
              f"exact (0%): outcome={exact.result.outcome}, "
              f"avg {exact.avg_latency:,.0f} µs")
    benchmark.extra_info["tolerant_us"] = tolerant.avg_latency
    benchmark.extra_info["exact_us"] = exact.avg_latency
    assert tolerant.result.outcome == "commit"
    assert exact.result.outcome == "recompute" or \
        exact.result.spec_stats["rollbacks"] > 0
    assert tolerant.avg_latency < exact.avg_latency


def test_ablation_wait_buffer_commit_latency(benchmark, capsys):
    """Cost of the side-effect barrier: commit latency (results become
    externally visible) vs encode latency (processing complete). The gap is
    the price of buffering speculative output until validation."""

    def run():
        return _txt()

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    encode_avg = float(report.result.latencies.mean())
    commit_avg = float(report.result.commit_latencies.mean())
    with capsys.disabled():
        print(f"\nencode latency {encode_avg:,.0f} µs | "
              f"commit latency {commit_avg:,.0f} µs "
              f"(barrier holds results {commit_avg - encode_avg:,.0f} µs on avg)")
    benchmark.extra_info["encode_us"] = encode_avg
    benchmark.extra_info["commit_us"] = commit_avg
    assert commit_avg >= encode_avg


def test_ablation_adaptive_tolerance(benchmark, capsys):
    """Extension beyond the paper: a margin that starts lenient and
    tightens per check, against Fig. 9's fixed margins on PDF. Detection
    happens where the decaying margin crosses the workload's error curve,
    so the adaptive rule lands between the fixed margins it spans — the
    bench records where, for the calibrated PDF drift."""
    from repro.core.tolerance import AdaptiveTolerance
    from repro.huffman.pipeline import HuffmanConfig, HuffmanPipeline
    from repro.platforms import X86Platform
    from repro.sre.executor_sim import SimulatedExecutor
    from repro.sre.runtime import Runtime
    from repro.workloads import get_workload

    def run_one(tolerance_rule=None, tolerance=0.01):
        data = get_workload("pdf").generate(512 * 4096, seed=0)
        blocks = [data[i:i + 4096] for i in range(0, len(data), 4096)]
        config = HuffmanConfig(step=1, tolerance=tolerance)
        rt = Runtime()
        ex = SimulatedExecutor(rt, X86Platform(), policy="balanced")
        pipe = HuffmanPipeline(rt, config, len(blocks))
        if tolerance_rule is not None:
            pipe.manager.spec.tolerance = tolerance_rule
        for i, b in enumerate(blocks):
            ex.sim.schedule_at(10.0 + 8.0 * i,
                               lambda i=i, b=b: pipe.feed_block(i, b))
        end = ex.run()
        result = pipe.result(end)
        assert pipe.verify_roundtrip(data)
        return result

    def run_all():
        return {
            "fixed 1%": run_one(tolerance=0.01),
            "fixed 2%": run_one(tolerance=0.02),
            "adaptive 5%→0.5%": run_one(
                AdaptiveTolerance(initial=0.05, floor=0.005, decay=0.6)),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        for label, r in results.items():
            print(f"{label:18s}: avg {r.avg_latency:8,.0f} µs, "
                  f"rollbacks {r.spec_stats.get('rollbacks', 0)}, "
                  f"outcome {r.outcome}")
    adaptive = results["adaptive 5%→0.5%"]
    assert adaptive.outcome in ("commit", "recompute")
    benchmark.extra_info["adaptive_us"] = adaptive.avg_latency
    benchmark.extra_info["fixed1_us"] = results["fixed 1%"].avg_latency
