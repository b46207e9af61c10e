"""The paper's Fig. 1 application: speculating on an iterative filter design.

A program computes FIR filter coefficients by an iterative solver (a serial
chain of refinement steps) and then filters a stream of data blocks with
them — the parallel phase is blocked behind the serial iteration (§II-A).
Value speculation predicts the coefficients from an early iteration and
starts filtering optimistically; a tolerance check compares the predicted
and refined coefficients in frequency-response space, committing the
buffered speculative output or rolling back and re-filtering.

This is the second full application built on :mod:`repro.core` (after the
Huffman benchmark), demonstrating that the speculation framework is
app-agnostic: the same speculative stream (manager, wait buffer, rollback
engine) drives both.
"""

from repro.filterapp.iterative import FilterDesignProblem, frequency_response
from repro.filterapp.pipeline import FilterPipeline
from repro.filterapp.runner import run_filter_experiment

__all__ = [
    "FilterDesignProblem",
    "frequency_response",
    "FilterPipeline",
    "run_filter_experiment",
]
