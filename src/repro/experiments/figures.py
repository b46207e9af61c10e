"""Shared machinery for the per-figure experiment modules."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.config import ExperimentScale, active_scale
from repro.experiments.runner import RunConfig, RunReport, run_huffman
from repro.experiments.report import ascii_chart, render_table

__all__ = ["FigureResult", "policy_sweep", "WORKLOAD_ORDER", "POLICY_ORDER"]

WORKLOAD_ORDER = ("txt", "bmp", "pdf")
#: Figures 3/4 legend order.
POLICY_ORDER = ("nonspec", "balanced", "aggressive", "conservative")


@dataclass
class FigureResult:
    """Series + scalar rows regenerating one paper figure."""

    figure: str
    title: str
    #: panel -> series-name -> y values (latency vs element, etc.).
    series: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    #: summary table rows (e.g. the run-times bar panel).
    table_header: list[str] = field(default_factory=list)
    table_rows: list[list[str]] = field(default_factory=list)
    #: full reports keyed (panel, series) for deeper inspection.
    reports: dict[tuple[str, str], RunReport] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def render(self, charts: bool = True) -> str:
        """Human-readable reproduction of the figure."""
        parts = [f"=== {self.figure}: {self.title} ==="]
        if charts:
            for panel, series in self.series.items():
                parts.append(ascii_chart(series, title=f"[{panel}]"))
        if self.table_rows:
            parts.append(render_table(self.table_header, self.table_rows))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)


def policy_sweep(
    *,
    figure: str,
    title: str,
    platform: str,
    scale: ExperimentScale | None = None,
    seed: int = 0,
    policies: tuple[str, ...] = POLICY_ORDER,
    workloads: tuple[str, ...] = WORKLOAD_ORDER,
    step: int = 1,
) -> FigureResult:
    """Fig. 3 / Fig. 4 style sweep: latency curves per policy per workload,
    plus the run-times summary panel."""
    scale = scale or active_scale()
    result = FigureResult(figure=figure, title=title)
    result.table_header = ["file", "policy", "avg lat (µs)", "runtime (µs)",
                           "outcome", "rollbacks"]
    for wl in workloads:
        panel = f"{wl} ({platform})"
        result.series[panel] = {}
        for policy in policies:
            report = run_huffman(config=RunConfig.from_kwargs(
                workload=wl,
                n_blocks=scale.n_blocks(wl),
                block_size=scale.block_size,
                reduce_ratio=scale.reduce_ratio,
                offset_fanout=scale.offset_fanout,
                platform=platform,
                policy=policy,
                step=step,
                seed=seed,
                label=f"{figure}/{wl}/{policy}",
            ))
            result.series[panel][policy] = report.latencies
            result.reports[(panel, policy)] = report
            result.table_rows.append([
                wl,
                policy,
                f"{report.avg_latency:,.0f}",
                f"{report.completion_time:,.0f}",
                report.result.outcome,
                str(report.result.spec_stats.get("rollbacks", 0)),
            ])
    return result
