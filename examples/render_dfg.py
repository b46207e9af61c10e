#!/usr/bin/env python
"""Regenerate the paper's Figure 2: the Huffman DFGs, as Graphviz DOT.

Runs a small non-speculative and a small speculative Huffman pipeline and
writes the *executed* graphs to ``fig2_nonspec.dot`` / ``fig2_spec.dot``
(render with ``dot -Tsvg``). Speculative tasks are dashed and check tasks
are diamonds, matching the paper's visual language; also prints an ASCII
gantt of the speculative run so the early speculative encodes are visible
without Graphviz.

Usage::

    python examples/render_dfg.py [out_dir]
"""

import pathlib
import sys

from repro.experiments import fig2
from repro.experiments.runner import RunConfig, run_huffman
from repro.obs.traceview import ascii_gantt


def main() -> None:
    out_dir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
    result = fig2.run()
    (out_dir / "fig2_nonspec.dot").write_text(result.dot_nonspec)
    (out_dir / "fig2_spec.dot").write_text(result.dot_spec)
    print(result.render())
    print(f"\nwrote {out_dir / 'fig2_nonspec.dot'} and {out_dir / 'fig2_spec.dot'}")
    print("render with: dot -Tsvg fig2_spec.dot -o fig2_spec.svg\n")

    report = run_huffman(config=RunConfig(
        workload="txt", n_blocks=64, policy="balanced",
        step=1, seed=0))
    print("who ran when (speculative TXT run):")
    print(ascii_gantt(report.events))


if __name__ == "__main__":
    main()
