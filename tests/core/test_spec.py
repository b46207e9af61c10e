"""Unit tests for SpeculationSpec and SpecVersion."""

import pytest

from repro.core.frequency import EveryK, SpeculationInterval
from repro.core.spec import SpecVersion, SpeculationSpec
from repro.core.tolerance import RelativeTolerance
from repro.errors import SpeculationError
from repro.sre.task import Task


def _spec(**overrides):
    base = dict(
        name="s",
        predictor=lambda v, n: Task(n, lambda: {"out": v}),
        validator=lambda p, c, r: 0.0,
        launch=lambda v: None,
        recompute=lambda v: None,
    )
    base.update(overrides)
    return SpeculationSpec(**base)


def test_defaults():
    spec = _spec()
    assert isinstance(spec.tolerance, RelativeTolerance)
    assert spec.tolerance.margin == 0.01
    assert isinstance(spec.interval, SpeculationInterval)
    assert isinstance(spec.verification, EveryK)


def test_int_interval_coerced():
    spec = _spec(interval=4)
    assert isinstance(spec.interval, SpeculationInterval)
    assert spec.interval.step == 4


def test_float_tolerance_coerced():
    spec = _spec(tolerance=0.05)
    assert isinstance(spec.tolerance, RelativeTolerance)
    assert spec.tolerance.margin == 0.05


def test_non_callable_predictor_rejected():
    with pytest.raises(SpeculationError):
        _spec(predictor="nope")


def test_version_register_tags_task():
    v = SpecVersion(3, created_index=2, created_at=1.0)
    t = Task("t", None)
    v.register(t)
    assert t.tags["spec_version"] == 3
    assert v.tasks == [t]


def test_version_initial_state():
    v = SpecVersion(1, 0, 0.0)
    assert v.active and not v.committed
    assert v.value is None


# ---------------------------------------------------------------------------
# SpecVersion resource lifetime
# ---------------------------------------------------------------------------

def test_version_releases_resources_once_with_reason():
    v = SpecVersion(1, 0, 0.0)
    seen = []
    v.add_resource(seen.append)
    v.add_resource(seen.append)
    v.release_resources("rollback")
    assert seen == ["rollback", "rollback"]
    v.release_resources("commit")  # idempotent: nothing left to release
    assert seen == ["rollback", "rollback"]


def test_rollback_engine_releases_version_resources():
    from repro.core.rollback import RollbackEngine
    from repro.sre.runtime import Runtime

    v = SpecVersion(1, 0, 0.0)
    reasons = []
    v.add_resource(reasons.append)
    RollbackEngine(Runtime()).rollback(v)
    assert not v.active
    assert reasons == ["rollback"]
