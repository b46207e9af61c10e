#!/usr/bin/env python
"""Domain scenario 2: the paper's Fig. 1 — speculating on an iterative solver.

An FIR low-pass filter is designed by a serial chain of gradient-descent
refinements while the signal to be filtered streams in. Value speculation
takes the coefficients from an early iteration, starts filtering
optimistically, and validates against later iterates with a programmer-
defined tolerance in frequency-response space.

This example exercises the *generic* speculation framework
(:mod:`repro.core`) on a second application, with its own predictor,
validator and rollback dynamics.

Usage::

    python examples/filter_speculation.py
"""

from repro.experiments.config import RunConfig
from repro.filterapp import FilterDesignProblem
from repro.filterapp.runner import run_filter_experiment
from repro.experiments.report import ascii_chart, render_table


def main() -> None:
    problem = FilterDesignProblem(iterations=24)
    final_err = problem.response_error(problem.solve()[-1])
    print(f"solver: {problem.iterations} refinement steps, "
          f"final response error {final_err:.3f}\n")

    rows = []
    curves = {}
    configs = [
        ("non-speculative", dict(speculative=False)),
        ("speculate @ iter 2", dict(step=2, tolerance=0.05)),
        ("speculate @ iter 8", dict(step=8, tolerance=0.05)),
        ("tight tolerance (rolls back)", dict(step=1, verify_k=2, tolerance=0.005)),
    ]
    for label, kw in configs:
        report = run_filter_experiment(
            config=RunConfig.for_app("filter", n_blocks=48, seed=0, **kw))
        rows.append([
            label, report.result.outcome, f"{report.avg_latency:,.0f}",
            f"{report.completion_time:,.0f}", str(report.extras["rollbacks"]),
            f"{report.extras['response_error']:.3f}",
        ])
        curves[label] = report.latencies
    print(render_table(
        ["configuration", "outcome", "avg lat (µs)", "runtime (µs)",
         "rollbacks", "resp. error"],
        rows,
    ))
    print()
    print(ascii_chart(curves, title="per-block filtering latency (µs)"))
    print("\nNote the tolerance trade: early speculation commits slightly "
          "less-converged coefficients (higher response error) in exchange "
          "for much lower latency — the paper's accuracy-for-performance "
          "trade (§II-A).")


if __name__ == "__main__":
    main()
