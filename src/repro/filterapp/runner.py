"""One-call runner for the filter application experiments.

Registered as the ``"filter"`` job kind (see
:mod:`repro.experiments.jobs`): takes the unified
:class:`~repro.experiments.config.RunConfig` and returns the unified
:class:`~repro.experiments.jobs.RunReport` through the shared scaffold
:func:`repro.experiments.scaffold.run_app`; this module supplies only the
filter hooks. Filter-specific scalars (``response_error``, ``output_ok``,
``rollbacks``, ``speculations``) ride in ``report.extras``.
"""

from __future__ import annotations

import numpy as np

from repro.core.stream import SpeculationConfig
from repro.experiments.scaffold import App, register_app
from repro.filterapp.iterative import FilterDesignProblem
from repro.filterapp.pipeline import FilterPipeline

__all__ = ["FilterApp", "run_filter_experiment"]


class FilterApp(App):
    """The Fig. 1 filtering application on the simulated executor.

    The input stream is band-limited noise plus an out-of-band tone, so
    the designed low-pass filter has real work to do; correctness is
    checked by re-filtering sequentially with the committed coefficients.
    """

    name = "filter"
    disk_per_block_us = 40.0

    def inputs(self, rng):
        cfg = self.cfg
        n_blocks = cfg.n_blocks if cfg.n_blocks is not None else 64
        n = n_blocks * cfg.block_samples
        t = np.arange(n)
        signal = (
            np.sin(2 * np.pi * 0.05 * t)          # in-band tone
            + 0.7 * np.sin(2 * np.pi * 0.37 * t)  # out-of-band tone
            + 0.3 * rng.standard_normal(n)
        )
        return n_blocks, signal.reshape(n_blocks, cfg.block_samples)

    def build(self, runtime, n_blocks):
        problem = FilterDesignProblem(iterations=self.cfg.iterations)
        return FilterPipeline(runtime, problem, SpeculationConfig(**self.speculation()),
                              n_blocks)

    def verify(self, pipeline):
        return pipeline.verify_output()

    def digest(self, pipeline):
        return pipeline.output().tobytes(), {}

    def extras(self, pipeline, ok):
        return {"response_error": pipeline.result_quality(),
                **super().extras(pipeline, ok), "output_ok": ok}


run_filter_experiment = register_app(FilterApp)
