"""Tests for experiment scale configuration and RunConfig."""

import json
import os
from unittest import mock

import pytest

from repro.errors import ExperimentError
from repro.experiments.config import PAPER, QUICK, RunConfig, active_scale


def test_paper_scale_matches_paper_geometry():
    assert PAPER.blocks == {"txt": 1024, "bmp": 512, "pdf": 1024}
    assert PAPER.block_size == 4096
    assert PAPER.reduce_ratio == 16
    assert PAPER.offset_fanout == 64
    assert PAPER.socket_reduce_ratio == 8  # §V-A socket configuration


def test_quick_scale_preserves_geometry():
    assert QUICK.block_size == PAPER.block_size
    assert QUICK.reduce_ratio == PAPER.reduce_ratio
    for wl in ("txt", "bmp", "pdf"):
        assert QUICK.n_blocks(wl) < PAPER.n_blocks(wl)


def test_active_scale_env_switch():
    with mock.patch.dict(os.environ, {"REPRO_SCALE": "paper"}):
        assert active_scale() is PAPER
    with mock.patch.dict(os.environ, {}, clear=True):
        assert active_scale() is QUICK
    with mock.patch.dict(os.environ, {"REPRO_SCALE": "quick"}):
        assert active_scale() is QUICK


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

def test_runconfig_is_frozen_and_comparable():
    a = RunConfig(workload="txt", n_blocks=64)
    b = RunConfig(workload="txt", n_blocks=64)
    assert a == b
    with pytest.raises(Exception):
        a.n_blocks = 32


def test_runconfig_rejects_unknown_transport():
    with pytest.raises(ExperimentError, match="transport"):
        RunConfig(transport="carrier-pigeon")


def test_runconfig_rejects_bad_executor_and_interval():
    with pytest.raises(ExperimentError):
        RunConfig(executor="")
    with pytest.raises(ExperimentError):
        RunConfig(metrics_interval_s=0)


def test_runconfig_validates_fault_plan():
    cfg = RunConfig(executor="procs", fault_plan="kill@3,hang@2:w1")
    assert cfg.fault_plan == "kill@3,hang@2:w1"
    with pytest.raises(ExperimentError, match="procs"):
        RunConfig(fault_plan="kill@3")  # faults need worker processes
    with pytest.raises(ExperimentError):
        RunConfig(executor="procs", fault_plan="explode@1")


def test_runconfig_validates_supervisor_knobs():
    with pytest.raises(ExperimentError):
        RunConfig(dispatch_timeout_s=0)


def test_from_kwargs_lists_unknown_and_valid_names():
    with pytest.raises(ExperimentError) as err:
        RunConfig.from_kwargs(workload="txt", n_blockz=64)
    msg = str(err.value)
    assert "n_blockz" in msg and "n_blocks" in msg


def test_to_dict_is_json_safe_with_instances():
    from repro.iomodels import SocketModel
    from repro.sre.policies import RatioPolicy

    cfg = RunConfig(workload=b"\x00" * 8192, io=SocketModel(),
                    policy=RatioPolicy(0.5), n_blocks=2)
    doc = cfg.to_dict()
    json.dumps(doc)  # must not raise
    assert doc["workload"] == "custom"
    assert isinstance(doc["io"], str) and isinstance(doc["policy"], str)
    assert doc["transport"] == "pickle"
