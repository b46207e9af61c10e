#!/usr/bin/env python
"""Domain scenario 1: compressing a slow network stream (paper Fig. 7).

A 4 MB synthetic PDF trickles in over a long-distance socket. Without
speculation, nothing can be encoded until the whole file has arrived and
the global tree is built. With tolerant speculation, the encoder works as
data arrives — and when the early tree turns out to be off (high-entropy
PDFs drift), the rollback re-encodes everything already on hand almost
instantly, then keeps pace with arrivals.

Usage::

    python examples/streaming_compression.py [n_blocks]
"""

import sys

from repro import RunConfig, run_huffman
from repro.iomodels import SocketModel
from repro.experiments.report import ascii_chart


def main() -> None:
    n_blocks = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    common = dict(
        n_blocks=n_blocks,
        io=SocketModel(),        # ~5.5 ms per 4 KB block
        reduce_ratio=8,          # socket configuration (§V-A)
        offset_fanout=8,
        seed=0,
    )

    for workload in ("txt", "pdf"):
        print(f"=== {workload.upper()} over a tunnelled socket ===")
        spec = run_huffman(config=RunConfig.from_kwargs(
            workload=workload, policy="balanced", step=1, **common))
        nonspec = run_huffman(config=RunConfig.from_kwargs(
            workload=workload, policy="nonspec", **common))
        transfer = spec.arrivals[-1]
        print(f"transfer time         : {transfer:,.0f} µs")
        print(f"non-spec avg latency  : {nonspec.avg_latency:,.0f} µs")
        print(f"speculative avg lat.  : {spec.avg_latency:,.0f} µs "
              f"({spec.avg_latency / transfer:.1%} of transfer)")
        print(f"rollbacks             : "
              f"{spec.result.spec_stats.get('rollbacks', 0)}")
        print(f"outcome               : {spec.result.outcome}, "
              f"round-trip {'ok' if spec.roundtrip_ok else 'FAILED'}")
        print(ascii_chart(
            {"arrival time": spec.arrivals, "latency (spec)": spec.latencies},
            title=f"{workload}: arrival vs latency",
            height=12,
        ))
        print()


if __name__ == "__main__":
    main()
