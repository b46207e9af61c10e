"""Figure 4 — dispatch policies on the Cell platform.

Same sweep as Fig. 3 but on the Cell model. The Cell-specific finding: the
conservative policy performs poorly because multiple buffering keeps a deep
per-worker dispatch queue that always offers some non-speculative task, so
little speculation happens overall.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentScale
from repro.experiments.figures import FigureResult, policy_sweep
from repro.obs.traceview import run_events

__all__ = ["run", "first_spec_dispatch"]


def first_spec_dispatch(report) -> float:
    """When the run dispatched its first speculative encode (NaN if never)."""
    events = run_events(report.events)
    spec_encodes = {e["task"] for e in events if e["kind"] == "task_spawn"
                    and e.get("speculative") and e["task_kind"] == "encode"}
    return next((e["t"] for e in events if e["kind"] == "task_dispatch"
                 and e["task"] in spec_encodes), float("nan"))


def run(scale: ExperimentScale | None = None, seed: int = 0) -> FigureResult:
    result = policy_sweep(
        figure="fig4",
        title="Latency and runtime per dispatch policy, Cell / disk",
        platform="cell",
        scale=scale,
        seed=seed,
    )
    txt_panel = "txt (cell)"
    cons = result.reports[(txt_panel, "conservative")]
    bal = result.reports[(txt_panel, "balanced")]
    result.notes.append(
        "conservative vs balanced avg latency on TXT: "
        f"{cons.avg_latency:,.0f} vs {bal.avg_latency:,.0f} µs "
        "(paper: conservative collapses on Cell due to multiple buffering)"
    )
    result.notes.append(
        "first speculative encode dispatched at: "
        f"conservative {first_spec_dispatch(cons):,.0f} µs vs "
        f"balanced {first_spec_dispatch(bal):,.0f} µs — multiple buffering "
        "keeps conservative workers saturated with natural work"
    )
    return result


def main() -> None:  # pragma: no cover - CLI glue
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
