"""One bad speculation knob, one error, whatever the app.

``SpeculationConfig`` is the one place that checks ``step`` and
``tolerance``, so every app rejects the same bad value with the same
:class:`~repro.errors.ExperimentError` — with speculation on or off.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments.config import RunConfig
from repro.experiments.jobs import run_job


@pytest.mark.parametrize("speculative", [False, True])
@pytest.mark.parametrize("app", ["huffman", "filter", "kmeans"])
@pytest.mark.parametrize("knob, message", [
    ({"step": -2, "tolerance": -0.5}, "step must be >= 0"),
    ({"tolerance": -0.5}, "tolerance must be non-negative"),
])
def test_bad_knob_is_the_same_experiment_error(app, speculative, knob, message):
    config = RunConfig.for_app(app, n_blocks=16, speculative=speculative, **knob)
    with pytest.raises(ExperimentError, match=message):
        run_job(config)
