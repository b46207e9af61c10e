"""Metrics: per-block latency collection and experiment reporting.

The paper's main evaluation criterion is *per-block latency*: the time a
data block's processing completes minus the time it arrived, discounting
data transfer (§V-A). :class:`~repro.metrics.latency.LatencyCollector`
gathers arrivals, encode completions (tagged with the speculation version
that produced them) and commit times; only encodes from *valid* versions —
the committed speculative version or the natural path — count.
"""

from repro.metrics.latency import LatencyCollector
from repro.metrics.summary import RunSummary, summarize_run
from repro.metrics.report import ascii_chart, render_table

__all__ = [
    "LatencyCollector",
    "RunSummary",
    "summarize_run",
    "ascii_chart",
    "render_table",
]
