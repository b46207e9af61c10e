"""Streaming k-means pipeline with centroid speculation.

Graph shape:

* per-block ``kstep`` tasks form the serial mini-batch refinement chain
  (each needs the previous state and its block) — the update stream;
* ``assign`` tasks label each block's points against some centroid set —
  data-parallel, but naturally blocked until the fit finishes;
* speculation predicts the centroids from the chain's prefix, launches
  assignments early, buffers the labels, and validates by relative inertia
  on a probe sample.

The version / barrier / commit plumbing is the shared
:class:`~repro.core.stream.SpeculativeStream`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.spec import SpecVersion
from repro.core.stream import SpeculationConfig, SpeculativeStream, pass_label
from repro.errors import ExperimentError
from repro.kmeansapp.kmeans import KMeansModel
from repro.sre.runtime import Runtime
from repro.sre.task import Task

__all__ = ["KMeansPipeline", "PROBE_BLOCKS"]

#: leading blocks sampled into the probe set the checks score on.
PROBE_BLOCKS = 2


class KMeansPipeline(SpeculativeStream):
    """Drives one streaming clustering run over a runtime."""

    def __init__(
        self,
        runtime: Runtime,
        model: KMeansModel,
        config: SpeculationConfig,
        n_blocks: int,
    ) -> None:
        self.model = model
        root = runtime.root.subgroup("kmeans")
        self.st_fit = root.subgroup("fit")
        self.st_assign = root.subgroup("assign")
        self._steps: dict[int, Task] = {}
        self._probe: list[np.ndarray] = []
        super().__init__(
            runtime, "kmeans", config, n_blocks,
            predictor=self._make_predict_task, validator=self._validator,
            make_pass=self._assign_pass, check_cost_hint={"entries": 512.0})
        self.st_fit.on_speculation_base(self._on_step_done)

    # ------------------------------------------------------------------
    # input + the serial fit chain
    # ------------------------------------------------------------------
    def feed_block(self, index: int, points: np.ndarray) -> None:
        points = np.asarray(points, dtype=np.float64)
        self.arrive(index, points)
        if len(self._probe) < PROBE_BLOCKS:
            self._probe.append(points)
        self.block_ready(index)
        self._make_step(index)

    def _make_step(self, index: int) -> None:
        block = self.blocks[index]
        model = self.model

        if index == 0:
            def fn0(b=block):
                centroids = model.init_centroids(b)
                counts = np.zeros(model.n_clusters, dtype=np.int64)
                centroids, counts = model.minibatch_step(centroids, counts, b)
                return {"out": (centroids, counts)}

            task = Task("kstep:0", fn0, kind="iterate", depth=1,
                        cost_hint={"entries": float(block.size)},
                        tags={"spec_base": True, "kstep": 0})
        else:
            def fn(state, b=block):
                centroids, counts = state
                return {"out": model.minibatch_step(centroids, counts, b)}

            task = Task(f"kstep:{index}", fn, inputs=("state",), kind="iterate",
                        depth=1, cost_hint={"entries": float(block.size)},
                        tags={"spec_base": True, "kstep": index})
        self._steps[index] = task
        self.runtime.add_task(task, self.st_fit)
        if index > 0 and index - 1 in self._steps:
            self.runtime.connect(self._steps[index - 1], "out", task, "state")
        if index + 1 in self._steps:  # pragma: no cover - ordered arrivals
            self.runtime.connect(task, "out", self._steps[index + 1], "state")

    def _on_step_done(self, task: Task, outs: dict[str, Any]) -> None:
        k = task.tags.get("kstep")
        if k is None:
            return
        centroids, _counts = outs["out"]
        self.offer(k + 1, centroids, is_final=k == self.n_blocks - 1)

    # ------------------------------------------------------------------
    # prediction and validation
    # ------------------------------------------------------------------
    def _make_predict_task(self, centroids: np.ndarray, name: str) -> Task:
        return Task(name, lambda c=centroids: {"out": np.array(c, copy=True)},
                    kind="predict", depth=1,
                    cost_hint={"entries": float(np.size(centroids))})

    def _validator(self, predicted, candidate, _ref) -> float:
        probe = np.concatenate(self._probe) if self._probe else None
        if probe is None:  # pragma: no cover - probe always exists after b0
            return 0.0
        return self.model.centroid_error(predicted, candidate, probe)

    def _assign_pass(self, centroids: np.ndarray, version: SpecVersion | None):
        """One centroid set's assignment tasks, one per block."""
        label = pass_label(version)

        def on_block(index: int) -> None:
            block = self.blocks[index]
            task = Task(
                f"assign:{label}:{index}",
                lambda b=block, c=centroids, i=index: {
                    "labels": self.model.assign(b, c),
                    "block": i,
                },
                kind="assign",
                depth=3,
                speculative=version is not None,
                cost_hint={"units": float(len(block))},
                tags={"block": index},
            )
            if version is not None:
                version.register(task)
            task.on_complete.append(
                lambda _t, outs: self.deliver(version, outs["block"], outs["labels"]))
            self.runtime.add_task(task, self.st_assign)

        return on_block

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def labels(self) -> np.ndarray:
        if len(self.committed) != self.n_blocks:
            raise ExperimentError(
                f"only {len(self.committed)}/{self.n_blocks} blocks labelled")
        return np.concatenate([self.committed[i] for i in range(self.n_blocks)])

    def verify_labels(self) -> bool:
        """Committed labels equal re-assigning with the committed centroids."""
        centroids = self.committed_value
        for i in range(self.n_blocks):
            expect = self.model.assign(self.blocks[i], centroids)
            if not np.array_equal(expect, self.committed[i]):
                return False
        return True

    def inertia(self) -> float:
        """Mean squared distance of all points under the committed centroids."""
        points = np.concatenate([self.blocks[i] for i in range(self.n_blocks)])
        return self.model.inertia(points, self.committed_value)
