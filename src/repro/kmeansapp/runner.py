"""One-call runner for the k-means application experiments.

Registered as the ``"kmeans"`` job kind (see
:mod:`repro.experiments.jobs`): takes the unified
:class:`~repro.experiments.config.RunConfig` and returns the unified
:class:`~repro.experiments.jobs.RunReport` through the shared scaffold
:func:`repro.experiments.scaffold.run_app`; this module supplies only the
k-means hooks. KMeans-specific scalars (``inertia``, ``labels_ok``,
``rollbacks``, ``speculations``) ride in ``report.extras``.
"""

from __future__ import annotations

from repro.core.stream import SpeculationConfig
from repro.experiments.scaffold import App, register_app
from repro.kmeansapp.kmeans import KMeansModel, gaussian_mixture_stream
from repro.kmeansapp.pipeline import KMeansPipeline

__all__ = ["KMeansApp", "run_kmeans_experiment"]


class KMeansApp(App):
    """Streaming k-means with centroid speculation.

    ``drift_blocks > 0`` shifts the mixture's means over the first blocks
    (an early transient): speculation before the drift settles rolls back.
    """

    name = "kmeans"
    check = "labels"
    disk_per_block_us = 60.0

    def inputs(self, rng):
        cfg = self.cfg
        n_blocks = cfg.n_blocks if cfg.n_blocks is not None else 48
        return n_blocks, gaussian_mixture_stream(
            n_blocks, cfg.block_points, n_clusters=cfg.n_clusters, dim=cfg.dim,
            drift_blocks=cfg.drift_blocks, seed=rng,
        )

    def build(self, runtime, n_blocks):
        model = KMeansModel(n_clusters=self.cfg.n_clusters, dim=self.cfg.dim)
        return KMeansPipeline(runtime, model, SpeculationConfig(**self.speculation()),
                              n_blocks)

    def verify(self, pipeline):
        return pipeline.verify_labels()

    def digest(self, pipeline):
        # Byte-identity oracle: committed labels + centroids.
        return (pipeline.labels().tobytes()
                + pipeline.committed_value.tobytes()), {}

    def extras(self, pipeline, ok):
        return {"inertia": pipeline.inertia(),
                **super().extras(pipeline, ok), "labels_ok": ok}


run_kmeans_experiment = register_app(KMeansApp)
