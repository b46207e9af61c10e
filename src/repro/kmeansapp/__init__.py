"""Speculative k-means — the paper's other motivating workload.

§II-A opens with "iterative algorithms such as k-means ... are commonly
used in large computations, notably in image processing". This package
builds that application on the speculation framework:

* points stream in block by block; a running mini-batch k-means refines the
  centroid estimate with every block (the update stream);
* the parallel second pass — assigning every point to its nearest centroid
  — is blocked behind the full fit, unless *speculative assignment* starts
  early with centroids predicted from a prefix of the stream;
* validation compares predicted vs refined centroids by relative inertia on
  a probe sample: clustering tolerates "accurate enough" centroids, paying
  a bounded inertia increase instead of waiting (the paper's
  accuracy-for-performance trade on a third domain).

Third client of :mod:`repro.core`, after Huffman and the FIR filter.
"""

from repro.kmeansapp.kmeans import KMeansModel, gaussian_mixture_stream
from repro.kmeansapp.pipeline import KMeansPipeline
from repro.kmeansapp.runner import run_kmeans_experiment

__all__ = [
    "KMeansModel",
    "gaussian_mixture_stream",
    "KMeansPipeline",
    "run_kmeans_experiment",
]
