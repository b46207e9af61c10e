"""Streaming filter pipeline with coefficient speculation (Fig. 1).

Graph shape, mirroring the paper's figure:

* a serial chain of ``iterate`` tasks refines the filter coefficients —
  each is flagged as a speculation base, so its completion reaches the
  :class:`~repro.core.manager.SpeculationManager` as an update;
* data blocks arrive concurrently; once coefficients (speculative or final)
  exist, per-block ``filter`` tasks run in parallel (overlap-save across
  block boundaries keeps blocks independent: a block's task needs only its
  own samples plus the tail of the *raw* previous block, which is data, not
  a computed dependency);
* speculative filter outputs pause at the wait buffer; the final iteration
  triggers the tolerance check → commit or re-filter.

The version / barrier / commit plumbing is the shared
:class:`~repro.core.stream.SpeculativeStream`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.spec import SpecVersion
from repro.core.stream import SpeculationConfig, SpeculativeStream, pass_label
from repro.errors import ExperimentError
from repro.filterapp.iterative import FilterDesignProblem
from repro.sre.runtime import Runtime
from repro.sre.task import Task

__all__ = ["FilterPipeline"]


def _filter_block(block: np.ndarray, tail: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Overlap-save FIR filtering of one block.

    ``full[j] = sum_k c[k] * ext[j - k]``, and block sample ``m`` sits at
    ``ext[len(tail) + m]``, so the block's outputs are
    ``full[len(tail) : len(tail) + len(block)]``. With ``tail`` holding the
    previous block's last ``taps - 1`` samples this equals filtering the
    whole stream sequentially; block 0 (empty tail) reproduces the zero-
    history transient.
    """
    ext = np.concatenate([tail, block])
    full = np.convolve(ext, coeffs, mode="full")
    return full[len(tail) : len(tail) + len(block)]


class FilterPipeline(SpeculativeStream):
    """Drives one speculative filtering run over a runtime."""

    def __init__(
        self,
        runtime: Runtime,
        problem: FilterDesignProblem,
        config: SpeculationConfig,
        n_blocks: int,
    ) -> None:
        self.problem = problem
        root = runtime.root.subgroup("filter")
        self.st_iter = root.subgroup("iteration")
        self.st_filter = root.subgroup("filtering")
        super().__init__(
            runtime, "filter", config, n_blocks,
            predictor=self._make_predict_task,
            validator=FilterDesignProblem.coefficient_error,
            make_pass=self._filter_pass,
            check_cost_hint={"entries": float(problem.n_freq)})
        self.st_iter.on_speculation_base(self._on_iteration)
        self._start_iteration_chain()

    # ------------------------------------------------------------------
    # the serial refinement chain
    # ------------------------------------------------------------------
    def _start_iteration_chain(self) -> None:
        prev: Task | None = None
        for k in range(1, self.problem.iterations + 1):
            task = Task(
                f"iterate:{k}",
                lambda coeffs: {"out": self.problem.refine(coeffs)},
                inputs=("coeffs",),
                kind="iterate",
                depth=1,
                cost_hint={"entries": float(self.problem.n_freq * self.problem.n_taps)},
                tags={"spec_base": True, "iteration": k},
            )
            self.runtime.add_task(task, self.st_iter)
            if prev is None:
                self.runtime.deliver_external(
                    task, "coeffs", self.problem.initial_coefficients()
                )
            else:
                self.runtime.connect(prev, "out", task, "coeffs")
            prev = task

    def _on_iteration(self, task: Task, outs: dict[str, Any]) -> None:
        k = task.tags.get("iteration")
        if k is None:
            return
        self.offer(k, outs["out"], is_final=k == self.problem.iterations)

    def _make_predict_task(self, coeffs: np.ndarray, name: str) -> Task:
        return Task(
            name,
            lambda c=coeffs: {"out": np.array(c, copy=True)},
            kind="predict",
            depth=1,
            cost_hint={"entries": float(self.problem.n_taps)},
        )

    # ------------------------------------------------------------------
    # data input
    # ------------------------------------------------------------------
    def feed_block(self, index: int, samples: np.ndarray) -> None:
        """A block of samples arrived (blocks must arrive in order)."""
        samples = np.asarray(samples, dtype=np.float64)
        if 0 < index < self.n_blocks and index not in self.blocks:
            prev = self.blocks.get(index - 1)
            if prev is None:
                raise ExperimentError("filter blocks must arrive in order")
            if len(prev) < self.problem.n_taps - 1:
                raise ExperimentError(
                    "blocks must hold at least n_taps - 1 samples for overlap-save")
        self.arrive(index, samples)
        self.block_ready(index)

    # ------------------------------------------------------------------
    # filtering passes
    # ------------------------------------------------------------------
    def _filter_pass(self, coeffs: np.ndarray, version: SpecVersion | None):
        """One coefficient vector's filter tasks, one per block."""
        label = pass_label(version)
        n_tail = len(coeffs) - 1

        def on_block(index: int) -> None:
            block = self.blocks[index]
            if index == 0:
                tail = np.zeros(0, dtype=np.float64)
            else:
                prev = self.blocks[index - 1]
                tail = prev[-n_tail:] if n_tail else prev[:0]
            task = Task(
                f"filter:{label}:{index}",
                lambda b=block, t=tail, c=coeffs, i=index: {
                    "samples": _filter_block(b, t, c),
                    "block": i,
                },
                kind="filter",
                depth=3,
                speculative=version is not None,
                cost_hint={"units": float(block.size)},
                tags={"block": index},
            )
            if version is not None:
                version.register(task)
            task.on_complete.append(
                lambda _t, outs: self.deliver(version, outs["block"], outs["samples"]))
            self.runtime.add_task(task, self.st_filter)

        return on_block

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def output(self) -> np.ndarray:
        """The committed filtered stream."""
        if len(self.committed) != self.n_blocks:
            raise ExperimentError(
                f"only {len(self.committed)}/{self.n_blocks} blocks committed"
            )
        return np.concatenate([self.committed[i] for i in range(self.n_blocks)])

    def verify_output(self) -> bool:
        """Committed output equals sequentially filtering with the committed
        coefficients."""
        coeffs = self.committed_value
        signal = np.concatenate([self.blocks[i] for i in range(self.n_blocks)])
        full = np.convolve(signal, coeffs, mode="full")[: len(signal)]
        return bool(np.allclose(self.output(), full))

    def result_quality(self) -> float:
        """Response error of the coefficients actually used."""
        return self.problem.response_error(self.committed_value)
