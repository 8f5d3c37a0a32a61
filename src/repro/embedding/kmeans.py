"""K-means clustering (Lloyd's algorithm with k-means++ seeding), numpy.

The link-prediction task clusters node embeddings into ``n_clusters = 5``
communities (the paper's setting) and predicts a link for 2-hop pairs that
land in the same cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EmbeddingError
from repro.rng import RandomState, ensure_rng

__all__ = ["KMeansResult", "kmeans"]


@dataclass(frozen=True)
class KMeansResult:
    """Clustering outcome: integer labels, centroids, final inertia."""

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float


def _plusplus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by squared distance."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.integers(n)]
    closest = np.full(n, np.inf)
    for i in range(1, k):
        distance = ((points - centroids[i - 1]) ** 2).sum(axis=1)
        np.minimum(closest, distance, out=closest)
        total = closest.sum()
        if total <= 0:
            # All points coincide with chosen centroids; reuse any point.
            centroids[i:] = points[rng.integers(n, size=k - i)]
            break
        probabilities = closest / total
        centroids[i] = points[rng.choice(n, p=probabilities)]
    return centroids


def kmeans(
    points: np.ndarray,
    n_clusters: int,
    max_iterations: int = 100,
    tolerance: float = 1e-7,
    seed: RandomState = None,
) -> KMeansResult:
    """Cluster ``points`` (``float[n, d]``) into ``n_clusters`` groups."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise EmbeddingError(f"points must be 2-D, got shape {points.shape}")
    if not np.isfinite(points).all():
        row = int(np.flatnonzero(~np.isfinite(points).all(axis=1))[0])
        raise EmbeddingError(f"points must be finite, row {row} is not")
    n = points.shape[0]
    if n_clusters < 1:
        raise EmbeddingError(f"n_clusters must be >= 1, got {n_clusters}")
    if n_clusters > n:
        raise EmbeddingError(f"n_clusters={n_clusters} exceeds number of points ({n})")

    rng = ensure_rng(seed)
    centroids = _plusplus_init(points, n_clusters, rng)
    labels = np.zeros(n, dtype=np.int64)
    point_norms = (points**2).sum(axis=1)
    for _ in range(max_iterations):
        # Assign: squared Euclidean distances via the expansion
        # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 — one (n, k) GEMM
        # instead of materialising the (n, k, d) difference tensor.
        distances = (
            point_norms[:, None]
            - 2.0 * (points @ centroids.T)
            + (centroids**2).sum(axis=1)[None, :]
        )
        np.maximum(distances, 0.0, out=distances)
        labels = distances.argmin(axis=1)
        new_centroids = centroids.copy()
        for cluster in range(n_clusters):
            mask = labels == cluster
            if mask.any():
                new_centroids[cluster] = points[mask].mean(axis=0)
            else:
                # Re-seed an empty cluster at the point farthest from its centroid.
                farthest = distances.min(axis=1).argmax()
                new_centroids[cluster] = points[farthest]
        shift = np.abs(new_centroids - centroids).max()
        centroids = new_centroids
        if shift < tolerance:
            break
    inertia = float(((points - centroids[labels]) ** 2).sum())
    return KMeansResult(labels=labels, centroids=centroids, inertia=inertia)
