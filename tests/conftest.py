"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.platforms import X86Platform
from repro.sim.kernel import Simulator
from repro.sre.executor_sim import SimulatedExecutor
from repro.sre.runtime import Runtime
from repro.sre.task import Task


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def runtime() -> Runtime:
    return Runtime()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


class Harness:
    """A runtime + simulated executor pair with helpers for graph tests."""

    def __init__(self, workers: int = 4, policy: str = "conservative") -> None:
        self.runtime = Runtime()
        self.platform = X86Platform(workers=workers)
        self.executor = SimulatedExecutor(
            self.runtime, self.platform, policy=policy, workers=workers
        )
        self.sim = self.executor.sim
        self.log: list[tuple[str, object]] = []

    def task(self, name: str, fn=None, inputs=(), **kw) -> Task:
        if fn is None:
            fn = lambda **kws: {"out": sum(v for v in kws.values())} if kws else {"out": 1}
        t = Task(name, fn, inputs=inputs, **kw)
        self.runtime.add_task(t)
        return t

    def record_sink(self, task: Task, port: str = "out") -> None:
        self.runtime.connect_sink(
            task, port, lambda v, n=task.name: self.log.append((n, v))
        )

    def run(self, **kw) -> float:
        return self.executor.run(**kw)


@pytest.fixture
def harness() -> Harness:
    return Harness()


def make_harness(**kw) -> Harness:
    return Harness(**kw)


def event_kinds(runtime: Runtime) -> list[str]:
    """The kinds of a runtime's flight-recorder events, in order."""
    return [e["kind"] for e in runtime.events.events()]
