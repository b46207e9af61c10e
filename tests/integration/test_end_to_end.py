"""End-to-end integration tests reproducing the paper's headline behaviours.

These run real (quick-scale) experiments through the public API and assert
the *qualitative* findings of §V — the same statements EXPERIMENTS.md
records quantitatively.
"""

import numpy as np
import pytest

from repro.experiments.fig4 import first_spec_dispatch
from repro.experiments.runner import RunConfig, run_huffman


def _run(**kw):
    return run_huffman(config=RunConfig(**kw))

pytestmark = pytest.mark.slow

N_TXT = 256
N_BMP = 256
N_PDF = 512


@pytest.fixture(scope="module")
def txt_nonspec():
    return _run(workload="txt", n_blocks=N_TXT, policy="nonspec", seed=0)


@pytest.fixture(scope="module")
def txt_balanced():
    return _run(workload="txt", n_blocks=N_TXT, policy="balanced",
                       step=1, seed=0)


def test_txt_speculation_reduces_latency_and_runtime(txt_nonspec, txt_balanced):
    """The headline: speculation bypasses the serial bottleneck on TXT."""
    assert txt_balanced.avg_latency < 0.85 * txt_nonspec.avg_latency
    assert txt_balanced.completion_time < txt_nonspec.completion_time
    assert txt_balanced.result.outcome == "commit"
    assert txt_balanced.result.spec_stats["rollbacks"] == 0


def test_txt_optimistic_has_minimal_check_overhead(txt_balanced):
    opt = _run(workload="txt", n_blocks=N_TXT, policy="balanced",
                      verification="optimistic", step=1, seed=0)
    full = _run(workload="txt", n_blocks=N_TXT, policy="balanced",
                       verification="full", step=1, seed=0)
    # "The small difference ... indicates that checking has a relatively low
    # impact on performance" (§V-B).
    assert abs(full.avg_latency - opt.avg_latency) < 0.1 * opt.avg_latency
    assert full.result.spec_stats["checks"] > opt.result.spec_stats["checks"]


def test_bmp_small_step_rolls_back_large_step_does_not():
    small = _run(workload="bmp", n_blocks=N_BMP, policy="balanced",
                        step=1, seed=0)
    # quick scale halves the file, so the knee sits at ~half the paper's 8
    large = _run(workload="bmp", n_blocks=N_BMP, policy="balanced",
                        step=8, seed=0)
    assert small.result.spec_stats["rollbacks"] >= 1
    assert large.result.spec_stats["rollbacks"] == 0
    assert large.avg_latency < small.avg_latency


def test_pdf_rollbacks_hurt_aggressive_most():
    nonspec = _run(workload="pdf", n_blocks=N_PDF, policy="nonspec", seed=0)
    aggressive = _run(workload="pdf", n_blocks=N_PDF, policy="aggressive",
                             step=1, seed=0)
    conservative = _run(workload="pdf", n_blocks=N_PDF,
                               policy="conservative", step=1, seed=0)
    assert aggressive.result.spec_stats["rollbacks"] >= 1
    # conservative only burns idle resources: stays close to non-spec
    assert conservative.avg_latency < 1.15 * nonspec.avg_latency
    assert aggressive.avg_latency > conservative.avg_latency


def test_pdf_optimistic_catastrophic_on_rollback():
    opt = _run(workload="pdf", n_blocks=N_PDF, policy="balanced",
                      verification="optimistic", step=1, seed=0)
    baseline = _run(workload="pdf", n_blocks=N_PDF, policy="balanced",
                           verification="every_k", step=1, seed=0)
    assert opt.result.outcome == "recompute"
    assert opt.avg_latency > baseline.avg_latency


def test_pdf_tolerance_ordering():
    """Fig. 9: 2% detects the drift late and loses; 5% never rolls back and
    wins, at a small compression cost."""
    runs = {
        tol: _run(workload="pdf", n_blocks=N_PDF, policy="balanced",
                         step=1, tolerance=tol, seed=0)
        for tol in (0.01, 0.02, 0.05)
    }
    assert runs[0.05].result.spec_stats["rollbacks"] == 0
    assert runs[0.01].result.spec_stats["rollbacks"] >= 1
    assert runs[0.05].avg_latency < runs[0.01].avg_latency < runs[0.02].avg_latency
    assert runs[0.05].result.compression_ratio < runs[0.01].result.compression_ratio


def test_cell_conservative_starves_speculation():
    """Fig. 4's Cell-specific finding: multiple buffering keeps conservative
    workers fed with natural (count) tasks, so speculative work is
    dispatched much later than under balanced — while on x86 (depth-1
    dispatch) both policies start speculating at the same instant."""
    runs = {
        (plat, pol): _run(workload="txt", n_blocks=N_TXT, platform=plat,
                                 policy=pol, step=1, seed=0)
        for plat in ("x86", "cell") for pol in ("balanced", "conservative")
    }
    x86_ratio = (first_spec_dispatch(runs[("x86", "conservative")])
                 / first_spec_dispatch(runs[("x86", "balanced")]))
    cell_ratio = (first_spec_dispatch(runs[("cell", "conservative")])
                  / first_spec_dispatch(runs[("cell", "balanced")]))
    assert x86_ratio < 1.1
    assert cell_ratio > 1.3
    # and the latency cost follows: conservative is the worst speculative
    # policy on Cell
    assert (runs[("cell", "conservative")].avg_latency
            > runs[("cell", "balanced")].avg_latency)


def test_socket_latency_negligible_vs_transfer_txt():
    r = _run(workload="txt", n_blocks=128, io="socket",
                    policy="balanced", step=1, reduce_ratio=8,
                    offset_fanout=8, seed=0)
    transfer = r.arrivals[-1]
    assert r.avg_latency < 0.05 * transfer


def test_more_cpus_reduce_latency_under_slow_io():
    from repro.iomodels import SocketModel
    lat = {}
    for cpus in (2, 4, 8):
        r = _run(workload="txt", n_blocks=128,
                        io=SocketModel(per_block_us=300.0, jitter=0.0),
                        policy="balanced", step=1, reduce_ratio=8,
                        offset_fanout=8, workers=cpus, seed=0)
        lat[cpus] = r.avg_latency
    assert lat[2] > lat[4] >= lat[8]


def test_compression_output_identical_to_reference_when_recomputed():
    """A recompute outcome uses the true tree: byte-identical to the
    sequential reference encoder."""
    from repro.huffman.reference import reference_compress
    from repro.workloads import get_workload
    data = get_workload("pdf").generate(64 * 4096, seed=3)
    r = _run(workload=data, policy="balanced", step=1,
                    verification="optimistic", seed=3)
    if r.result.outcome == "recompute":
        _, ref_bits, _ = reference_compress(data)
        assert r.result.compressed_bits == ref_bits


def test_socket_pdf_rollback_plateau():
    """Fig. 7b's signature: after the rollback, every block already on hand
    is re-encoded almost instantly — a flat plateau in completion times —
    and later blocks track their arrivals again."""
    r = _run(workload="pdf", n_blocks=256, io="socket",
                    policy="balanced", step=1, reduce_ratio=8,
                    offset_fanout=8, seed=0)
    if r.result.spec_stats.get("rollbacks", 0) == 0:
        pytest.skip("no rollback at this geometry/seed")
    completions = r.result.completions
    arrivals = r.arrivals
    # find the largest group of blocks completing within a tight window
    order = np.sort(completions)
    window = (arrivals[-1] - arrivals[0]) * 0.02  # 2% of the transfer
    best = max(
        np.searchsorted(order, t + window) - i
        for i, t in enumerate(order)
    )
    assert best >= 32, "expected a re-encode burst (plateau) after rollback"
    # the last blocks complete shortly after they arrive (tracking arrivals)
    tail_latency = (completions - arrivals)[-16:]
    assert tail_latency.max() < 0.1 * (arrivals[-1] - arrivals[0])
