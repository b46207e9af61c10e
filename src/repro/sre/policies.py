"""Resource-allocation (dispatch) policies for speculative work.

The paper integrates three policies (§V-B):

* **conservative** — natural execution first; speculative tasks are
  dispatched only when no non-speculative task is ready.
* **aggressive** — actively prefers any speculative task over
  non-speculative ones.
* **balanced** — dispatches an equal number of speculative and
  non-speculative tasks (1:1 interleave when both are available).

§II-B also lists two further resource-management options, implemented here:
*"limiting the amount of speculative tasks allowed to run concurrently"*
(:class:`ThrottledPolicy`) and *"favoring a given speculative to
non-speculative ratio"* (:class:`RatioPolicy`).

Policies select *which class* of ready queue to serve next; ordering within
a class is the queue's (control > depth > FCFS). ``FCFSPolicy`` ignores the
class split entirely and exists for the scheduler ablation.
"""

from __future__ import annotations

from repro.errors import SchedulingError
from repro.sre.queues import ReadyQueue
from repro.sre.task import Task

__all__ = [
    "DispatchPolicy",
    "ConservativePolicy",
    "AggressivePolicy",
    "BalancedPolicy",
    "RatioPolicy",
    "ThrottledPolicy",
    "FCFSPolicy",
    "get_policy",
    "policy_names",
]


class DispatchPolicy:
    """Strategy deciding which ready task a freed worker receives."""

    name = "base"

    def select(self, natural: ReadyQueue, speculative: ReadyQueue) -> Task | None:
        """Pop and return the next task to dispatch, or None if idle."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any per-run state (called once per run)."""

    # Executors report speculative occupancy so occupancy-aware policies
    # (ThrottledPolicy) can bound in-flight speculation. Default: ignore.
    def notify_started(self, task: Task) -> None:
        """A selected task began executing."""

    def notify_finished(self, task: Task) -> None:
        """A previously started task completed or was reaped."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__}>"


class ConservativePolicy(DispatchPolicy):
    """Speculate only on otherwise-idle resources."""

    name = "conservative"

    def select(self, natural: ReadyQueue, speculative: ReadyQueue) -> Task | None:
        return natural.pop() or speculative.pop()


class AggressivePolicy(DispatchPolicy):
    """Prefer speculative tasks whenever any are ready."""

    name = "aggressive"

    def select(self, natural: ReadyQueue, speculative: ReadyQueue) -> Task | None:
        return speculative.pop() or natural.pop()


class BalancedPolicy(DispatchPolicy):
    """Alternate 1:1 between speculative and natural work.

    When only one class has ready tasks it is served, but the alternation
    counter only advances on the class actually dispatched, so a burst of
    one class does not starve the other once it reappears.
    """

    name = "balanced"

    def __init__(self) -> None:
        self._next_spec = False

    def reset(self) -> None:
        self._next_spec = False

    def select(self, natural: ReadyQueue, speculative: ReadyQueue) -> Task | None:
        first, second = (
            (speculative, natural) if self._next_spec else (natural, speculative)
        )
        task = first.pop()
        if task is None:
            task = second.pop()
        if task is not None:
            self._next_spec = not task.speculative
        return task


class RatioPolicy(DispatchPolicy):
    """Serve ``spec_share`` of dispatches to speculative work (§II-B).

    ``RatioPolicy(0.5)`` behaves like balanced; ``0.25`` gives speculation
    one dispatch in four. A deficit counter keeps the long-run ratio exact
    even when one class is intermittently empty.
    """

    name = "ratio"

    def __init__(self, spec_share: float = 0.5) -> None:
        if not (0.0 <= spec_share <= 1.0):
            raise SchedulingError(f"spec_share must be in [0, 1], got {spec_share}")
        self.spec_share = spec_share
        self._credit = 0.0

    def reset(self) -> None:
        self._credit = 0.0

    def select(self, natural: ReadyQueue, speculative: ReadyQueue) -> Task | None:
        self._credit += self.spec_share
        prefer_spec = self._credit >= 1.0
        first, second = (
            (speculative, natural) if prefer_spec else (natural, speculative)
        )
        task = first.pop()
        if task is None:
            task = second.pop()
        if task is not None and task.speculative:
            self._credit -= 1.0
        # Clamp symmetrically: unbounded positive credit would hoard
        # speculation entitlement, and unbounded *negative* credit (from
        # speculative dispatches via the natural-empty fallback) would starve
        # speculation long after natural work returns.
        self._credit = max(-2.0, min(self._credit, 2.0))
        return task


class ThrottledPolicy(DispatchPolicy):
    """Cap concurrently *running* speculative tasks (§II-B).

    Wraps an inner policy; once ``max_speculative`` speculative tasks are
    in flight, only natural work is dispatched until one finishes.
    """

    name = "throttled"

    def __init__(self, inner: "DispatchPolicy | None" = None,
                 max_speculative: int = 4) -> None:
        if max_speculative < 0:
            raise SchedulingError("max_speculative must be >= 0")
        self.inner = inner if inner is not None else BalancedPolicy()
        self.max_speculative = max_speculative
        self._inflight = 0

    @property
    def speculative_inflight(self) -> int:
        return self._inflight

    def reset(self) -> None:
        self._inflight = 0
        self.inner.reset()

    def select(self, natural: ReadyQueue, speculative: ReadyQueue) -> Task | None:
        if self._inflight >= self.max_speculative:
            return natural.pop()
        return self.inner.select(natural, speculative)

    def notify_started(self, task: Task) -> None:
        if task.speculative:
            self._inflight += 1

    def notify_finished(self, task: Task) -> None:
        if task.speculative:
            self._inflight -= 1
            if self._inflight < 0:  # pragma: no cover - defensive
                raise SchedulingError("speculative in-flight count underflow")


class FCFSPolicy(DispatchPolicy):
    """Strict global arrival order, blind to class and depth (ablation only).

    The paper calls this breadth-first behaviour "toxic to memory locality"
    and latency; the ablation bench quantifies that claim on our model.
    """

    name = "fcfs"

    def select(self, natural: ReadyQueue, speculative: ReadyQueue) -> Task | None:
        a, b = natural.peek(), speculative.peek()
        if a is None:
            return speculative.pop()
        if b is None:
            return natural.pop()
        return natural.pop() if a.seq <= b.seq else speculative.pop()


_POLICIES = {
    cls.name: cls
    for cls in (ConservativePolicy, AggressivePolicy, BalancedPolicy,
                RatioPolicy, ThrottledPolicy, FCFSPolicy)
}


def policy_names() -> tuple[str, ...]:
    """Names :func:`get_policy` accepts, in registration order."""
    return tuple(_POLICIES)


def get_policy(name: str) -> DispatchPolicy:
    """Instantiate a dispatch policy by its paper name."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise SchedulingError(
            f"unknown dispatch policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
