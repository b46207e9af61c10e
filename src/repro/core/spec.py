"""The speculation spec (the paper's four-point interface) and versions.

A :class:`SpeculationSpec` is what a programmer hands to the runtime to make
a stream speculative "semi-automatically" (§II-A contribution list). A
:class:`SpecVersion` is one live speculation attempt: a predicted value plus
every task spawned under that prediction, which is exactly the footprint a
rollback must destroy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.frequency import EveryK, SpeculationInterval, VerificationPolicy
from repro.core.tolerance import RelativeTolerance, ToleranceRule
from repro.core.wait import WaitBuffer
from repro.errors import SpeculationError
from repro.sre.task import Task

__all__ = ["SpeculationSpec", "SpecVersion"]

#: predictor(update_value, task_name) -> Task producing the prediction on port "out"
Predictor = Callable[[Any, str], Task]
#: validator(predicted, candidate, reference_update) -> relative error (>= 0)
Validator = Callable[[Any, Any, Any], float]


class SpecVersion:
    """One speculation attempt and its task footprint."""

    def __init__(self, vid: int, created_index: int, created_at: float) -> None:
        self.vid = vid
        #: update index the prediction was based on.
        self.created_index = created_index
        self.created_at = created_at
        #: the predicted value, once the prediction task completes.
        self.value: Any = None
        self.prediction_task: Task | None = None
        #: every task spawned under this version (rollback footprint roots).
        self.tasks: list[Task] = []
        #: resource-release callbacks (e.g. shared-memory block refs the
        #: version's tasks pinned); invoked exactly once with the outcome
        #: reason on commit or rollback.
        self.resources: list[Callable[[str], None]] = []
        self.active = True
        self.committed = False
        #: event-log anchors (seqs of this version's spec_predict /
        #: spec_launch events) — lineage edges hang off these.
        self.predict_seq: int | None = None
        self.launch_seq: int | None = None

    def register(self, task: Task) -> Task:
        """Record a task as belonging to this version (tags it, too)."""
        task.tags["spec_version"] = self.vid
        self.tasks.append(task)
        return task

    def add_resource(self, release: Callable[[str], None]) -> None:
        """Attach a resource to this version's lifetime.

        ``release(reason)`` is called once when the version's fate is
        decided — ``reason`` is ``"commit"`` or ``"rollback"``. The
        shared-memory transport uses this to drop the block references a
        speculative second pass acquired, so a mis-speculated version can
        never pin segments (see :mod:`repro.sre.shm`).
        """
        self.resources.append(release)

    def release_resources(self, reason: str) -> None:
        """Invoke and clear every attached release callback (idempotent)."""
        callbacks, self.resources = self.resources, []
        for release in callbacks:
            release(reason)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "committed" if self.committed else ("active" if self.active else "rolled-back")
        return f"<SpecVersion v{self.vid} from update {self.created_index} {state}>"


@dataclass
class SpeculationSpec:
    """Programmer-provided description of one speculation domain.

    Maps one-to-one onto the paper's interface (§II-A):

    1. *what* — the value produced by ``predictor`` and consumed by the
       subgraph ``launch`` builds;
    2. *how* — ``predictor``: builds the task that turns a partial update
       into a predicted value (e.g. prefix histogram → speculative tree);
    3. *where (not)* — ``barrier``: the wait buffer where speculative
       results pause before side effects;
    4. *how to validate* — ``validator`` + ``tolerance``: measured
       prediction error and the margin that makes it acceptable.

    Plus the management knobs of §II-B: ``interval`` (speculation
    frequency / step size) and ``verification`` (verification frequency),
    and the recovery route ``recompute`` used when the final check fails.
    """

    name: str
    predictor: Predictor
    validator: Validator
    launch: Callable[[SpecVersion], None]
    recompute: Callable[[Any], None]
    barrier: WaitBuffer | None = None
    tolerance: ToleranceRule = field(default_factory=lambda: RelativeTolerance(0.01))
    interval: SpeculationInterval = field(default_factory=lambda: SpeculationInterval(8))
    verification: VerificationPolicy = field(default_factory=lambda: EveryK(8))
    #: cost hints for generated check tasks (see platform cost models).
    check_cost_hint: dict[str, float] = field(default_factory=lambda: {"entries": 256.0})

    def __post_init__(self) -> None:
        if isinstance(self.interval, int):
            self.interval = SpeculationInterval(self.interval)
        if isinstance(self.tolerance, float):
            self.tolerance = RelativeTolerance(self.tolerance)
        if not callable(self.predictor) or not callable(self.validator):
            raise SpeculationError("predictor and validator must be callable")
