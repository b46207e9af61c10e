"""The paper's primary contribution: tolerant coarse-grain value speculation.

The programmer describes a speculation with the four details of the paper's
interface (§II-A) collected in a :class:`~repro.core.spec.SpeculationSpec`:

1. **what** to speculate — the value flowing along a DFG edge (here: the
   value produced by an approximate *predictor* and consumed by the
   speculative subgraph the *launch* callback builds);
2. **how** — the predictor factory turning a partial input (e.g. a prefix
   histogram) into a prediction task;
3. **where (not)** — the side-effect barrier: a :class:`~repro.core.wait.WaitBuffer`
   holding speculative results until validation;
4. **how to validate** — a validator measuring prediction error, compared
   against a programmer-chosen *tolerance* margin.

The :class:`~repro.core.manager.SpeculationManager` drives the protocol over
a stream of *updates* (successive refinements of the true value): it decides
when to speculate (speculation frequency / step size), when to verify
(verification policy), and performs commit or rollback through the
:class:`~repro.core.rollback.RollbackEngine`.

Apps do not wire these pieces by hand: a
:class:`~repro.core.stream.SpeculativeStream` builds the wait buffer and
the manager from a :class:`~repro.core.stream.SpeculationConfig` and the
app's predictor and validator, opens one pass per version, routes each
block's result to the barrier or the commit sink, and answers which
versions are authoritative. The app supplies its update chain and a
factory for its per-version pass.
"""

from repro.core.decisions import DecisionSource, LiveDecisionSource
from repro.core.frequency import (
    EveryK,
    FullVerification,
    Optimistic,
    VerificationPolicy,
    get_verification,
)
from repro.core.manager import SpeculationManager
from repro.core.rollback import RollbackEngine
from repro.core.spec import SpeculationSpec, SpecVersion
from repro.core.stats import SpeculationStats
from repro.core.stream import LatencyCollector, SpeculationConfig, SpeculativeStream
from repro.core.tolerance import (
    AbsoluteTolerance,
    AdaptiveTolerance,
    ExactTolerance,
    RelativeTolerance,
    ToleranceRule,
)
from repro.core.wait import WaitBuffer

__all__ = [
    "DecisionSource",
    "LiveDecisionSource",
    "EveryK",
    "FullVerification",
    "Optimistic",
    "VerificationPolicy",
    "get_verification",
    "SpeculationManager",
    "RollbackEngine",
    "SpeculationSpec",
    "SpecVersion",
    "SpeculationStats",
    "LatencyCollector",
    "SpeculationConfig",
    "SpeculativeStream",
    "ToleranceRule",
    "RelativeTolerance",
    "AdaptiveTolerance",
    "AbsoluteTolerance",
    "ExactTolerance",
    "WaitBuffer",
]
