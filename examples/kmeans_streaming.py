#!/usr/bin/env python
"""Domain scenario 4: speculative k-means over a point stream.

The paper's introduction names k-means as a prime target for coarse-grain
value speculation: the centroid fit is an iterative, serial computation,
and the massively parallel assignment pass is stuck behind it. Here the
centroids are speculated from a prefix of the stream; the tolerance is a
bound on *relative inertia excess* — clustering quality traded, within a
budget, for latency.

Usage::

    python examples/kmeans_streaming.py [n_blocks]
"""

import sys

from repro.experiments.config import RunConfig
from repro.kmeansapp import run_kmeans_experiment
from repro.experiments.report import ascii_chart, render_table


def main() -> None:
    n_blocks = int(sys.argv[1]) if len(sys.argv) > 1 else 48
    rows = []
    curves = {}
    configs = [
        ("non-speculative", dict(speculative=False)),
        ("speculate @ block 2", dict(step=2, tolerance=0.05)),
        ("drifting clusters (rolls back)",
         dict(step=1, verify_k=2, drift_blocks=n_blocks // 3, tolerance=0.02)),
    ]
    for label, kw in configs:
        report = run_kmeans_experiment(
            config=RunConfig.for_app("kmeans", n_blocks=n_blocks, seed=0, **kw))
        rows.append([
            label, report.result.outcome, f"{report.avg_latency:,.0f}",
            f"{report.completion_time:,.0f}", str(report.extras["rollbacks"]),
            f"{report.extras['inertia']:.3f}",
        ])
        curves[label] = report.latencies
    print(render_table(
        ["configuration", "outcome", "avg lat (µs)", "runtime (µs)",
         "rollbacks", "inertia"],
        rows,
    ))
    print()
    print(ascii_chart(curves, title="per-block assignment latency (µs)"))
    print("\nSpeculative assignment labels each block as it arrives; the "
          "tolerance check guarantees the committed centroids cluster a "
          "probe sample within the configured inertia budget of the full "
          "fit's centroids.")


if __name__ == "__main__":
    main()
