#!/usr/bin/env python
"""Quickstart: one speculative Huffman run, speculative vs not.

Runs the paper's benchmark on the simulated x86 platform with the balanced
dispatch policy, compares it against the non-speculative baseline, and
prints the per-element latency curves — a miniature of Fig. 3a.

Usage::

    python examples/quickstart.py [n_blocks]
"""

import sys

from repro import RunConfig, run_huffman
from repro.experiments.report import ascii_chart, render_table
from repro.experiments.summary import RunSummary


def main() -> None:
    n_blocks = int(sys.argv[1]) if len(sys.argv) > 1 else 256

    print(f"Encoding {n_blocks} x 4 KB blocks of synthetic e-book text...\n")
    nonspec = run_huffman(config=RunConfig(
        workload="txt", n_blocks=n_blocks, policy="nonspec", seed=0))
    spec = run_huffman(config=RunConfig(
        workload="txt", n_blocks=n_blocks, policy="balanced", step=1, seed=0))

    rows = [nonspec.summary.row(), spec.summary.row()]
    print(render_table(RunSummary.HEADER, rows))
    print()

    gain = 1.0 - spec.avg_latency / nonspec.avg_latency
    speedup = 1.0 - spec.completion_time / nonspec.completion_time
    print(f"speculation cut average latency by {gain:.1%} "
          f"and total runtime by {speedup:.1%}")
    print(f"output round-trip verified: {spec.roundtrip_ok}\n")

    print(ascii_chart(
        {"non-speculative": nonspec.latencies, "balanced": spec.latencies},
        title="per-element latency (µs), x86 / disk",
    ))


if __name__ == "__main__":
    main()
