"""Integration tests for the Fig. 1 filter application."""

import numpy as np
import pytest

from repro.experiments.config import RunConfig
from repro.filterapp import FilterDesignProblem, frequency_response
from repro.filterapp.runner import run_filter_experiment


def _run(**kw):
    return run_filter_experiment(config=RunConfig.for_app("filter", **kw))


# ----------------------------------------------------------------- solver
def test_solver_converges():
    problem = FilterDesignProblem(iterations=30)
    iterates = problem.solve()
    errs = [problem.response_error(c) for c in iterates]
    assert errs[-1] < errs[0]
    assert errs[-1] < 0.5


def test_iterates_approach_final():
    problem = FilterDesignProblem(iterations=30)
    iterates = problem.solve()
    final = iterates[-1]
    dist = [FilterDesignProblem.coefficient_error(c, final) for c in iterates]
    # distances to the final iterate shrink (eventually monotone)
    assert dist[5] > dist[15] > dist[25]
    assert dist[-1] == 0.0


def test_frequency_response_shape():
    coeffs = FilterDesignProblem().initial_coefficients()
    resp = frequency_response(coeffs, n_points=128)
    assert resp.shape == (128,)
    assert np.all(resp >= 0)


def test_problem_validation():
    from repro.errors import ExperimentError
    with pytest.raises(ExperimentError):
        FilterDesignProblem(cutoff=0.7)
    with pytest.raises(ExperimentError):
        FilterDesignProblem(n_taps=1)


# ----------------------------------------------------------------- pipeline
def test_speculative_filter_run_commits():
    report = _run(n_blocks=24, iterations=24, step=4,
                                   tolerance=0.05, seed=0)
    assert report.result.outcome == "commit"
    assert report.extras["output_ok"]
    assert report.extras["speculations"] >= 1


def test_speculation_beats_nonspec_latency():
    spec = _run(n_blocks=24, step=4, tolerance=0.05, seed=0)
    nonspec = _run(n_blocks=24, speculative=False, seed=0)
    assert nonspec.result.outcome == "non_speculative"
    assert spec.avg_latency < nonspec.avg_latency
    assert nonspec.extras["output_ok"]


def test_too_early_speculation_rolls_back():
    """Speculating on iteration 1 with a tight tolerance: the coefficients
    are still moving, so checks fail and the run recovers."""
    report = _run(n_blocks=24, step=1, verify_k=2,
                                   tolerance=0.005, seed=0)
    assert report.extras["rollbacks"] >= 1
    assert report.extras["output_ok"]
    assert report.result.outcome in ("commit", "recompute")


def test_committed_quality_within_tolerance_of_final():
    problem_final = FilterDesignProblem(iterations=24)
    final_err = problem_final.response_error(problem_final.solve()[-1])
    report = _run(n_blocks=16, step=8, tolerance=0.05, seed=0)
    if report.result.outcome == "commit":
        # committed (possibly early) coefficients are close to final quality
        assert report.extras["response_error"] < final_err + 0.10


def test_ordered_arrival_enforced():
    from repro.errors import ExperimentError
    from repro.core.stream import SpeculationConfig
    from repro.filterapp.pipeline import FilterPipeline
    from repro.sre.runtime import Runtime
    rt = Runtime()
    pipe = FilterPipeline(rt, FilterDesignProblem(), SpeculationConfig(), 4)
    with pytest.raises(ExperimentError):
        pipe.feed_block(2, np.zeros(8))
