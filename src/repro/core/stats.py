"""What one speculation domain did during a run, folded from its events.

The manager writes each fact once, as an event stamped with its domain
(the spec's name); :func:`fold_speculation` derives the domain's
:class:`SpeculationStats` and ``spec_*`` series from those events.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry

__all__ = ["SpeculationStats", "fold_speculation"]


@dataclass
class SpeculationStats:
    """Aggregated speculation behaviour (reported by every experiment)."""

    speculations: int = 0
    checks: int = 0
    checks_passed: int = 0
    checks_failed: int = 0
    rollbacks: int = 0
    commits: int = 0
    recomputes: int = 0
    stale_verdicts: int = 0
    #: error measured by each completed check, in order (for tolerance plots).
    check_errors: list[float] = field(default_factory=list)

    def as_dict(self) -> dict[str, float]:
        out: dict[str, float] = asdict(self)
        del out["check_errors"]
        if self.check_errors:
            out["max_check_error"] = max(self.check_errors)
            out["last_check_error"] = self.check_errors[-1]
        return out


def fold_speculation(events: EventLog, metrics: MetricsRegistry,
                     domain: str) -> SpeculationStats:
    """Fold ``domain``'s speculation events into fresh stats and the
    ``spec_*`` series of ``metrics`` (registry-wide: several domains on
    one registry add up); returns the stats."""
    stats = SpeculationStats()
    speculations = metrics.counter(
        "spec_speculations", "speculation versions launched")
    checks = metrics.counter(
        "spec_checks", "verification checks completed",
        labelnames=("verdict",))
    #: event kind -> the SpeculationStats field and the series it bumps
    bumps = {
        "spec_predict": ("speculations", speculations),
        "spec_launch": ("speculations", speculations),  # reused ones only
        "check_pass": ("checks_passed", checks.labels(verdict="pass")),
        "check_fail": ("checks_failed", checks.labels(verdict="fail")),
        "check_stale": ("stale_verdicts", metrics.counter(
            "spec_stale_verdicts", "check verdicts that arrived after "
            "their version was already dead or the run finalized")),
        "rollback_done": ("rollbacks", metrics.counter(
            "spec_rollbacks", "speculation versions rolled back")),
        "spec_commit": ("commits", metrics.counter(
            "spec_commits", "speculation versions committed")),
        "spec_recompute": ("recomputes", metrics.counter(
            "spec_recomputes", "failed final checks → non-speculative redo")),
    }
    check_error = metrics.histogram(
        "spec_check_error", "relative error measured by each check",
        buckets=(1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.02, 0.05, 0.1,
                 0.25, 0.5, 1.0))
    version_us = metrics.histogram(
        "spec_version_us",
        "speculation version lifetime µs, birth → commit/rollback",
        labelnames=("outcome",))

    def fold(event: dict[str, Any]) -> None:
        kind = event["kind"]
        if event.get("domain") != domain or (
                kind == "spec_launch" and not event.get("reused")):
            return  # another domain's, or the launch of a predicted version
        name, series = bumps[kind]
        setattr(stats, name, getattr(stats, name) + 1)
        series.inc()
        if "error" in event:  # a check verdict, stale ones included
            stats.checks += 1
            stats.check_errors.append(event["error"])
            check_error.observe(event["error"])
        if "lifetime_us" in event:  # a version's end: rollback or commit
            outcome = "commit" if kind == "spec_commit" else "rollback"
            version_us.labels(outcome=outcome).observe(event["lifetime_us"])

    for kind in bumps:
        events.fold(kind, fold)
    return stats
