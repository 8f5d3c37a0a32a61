"""Tests for k-means clustering."""

import numpy as np
import pytest

from repro.embedding import kmeans
from repro.errors import EmbeddingError


def _two_blobs(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(0, 0), scale=0.3, size=(40, 2))
    b = rng.normal(loc=(10, 10), scale=0.3, size=(40, 2))
    return np.vstack([a, b])


class TestKMeans:
    def test_separates_clear_blobs(self):
        points = _two_blobs()
        result = kmeans(points, n_clusters=2, seed=0)
        first_block = set(result.labels[:40].tolist())
        second_block = set(result.labels[40:].tolist())
        assert len(first_block) == 1
        assert len(second_block) == 1
        assert first_block != second_block

    def test_labels_in_range(self):
        result = kmeans(_two_blobs(), n_clusters=3, seed=1)
        assert set(result.labels.tolist()) <= {0, 1, 2}

    def test_inertia_non_negative_and_sane(self):
        points = _two_blobs()
        two = kmeans(points, n_clusters=2, seed=0).inertia
        one = kmeans(points, n_clusters=1, seed=0).inertia
        assert 0 <= two < one

    def test_single_cluster_centroid_is_mean(self):
        points = _two_blobs()
        result = kmeans(points, n_clusters=1, seed=0)
        np.testing.assert_allclose(result.centroids[0], points.mean(axis=0))

    def test_k_equals_n(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        result = kmeans(points, n_clusters=3, seed=0)
        assert len(set(result.labels.tolist())) == 3
        assert result.inertia == pytest.approx(0.0)

    def test_identical_points(self):
        points = np.ones((10, 3))
        result = kmeans(points, n_clusters=2, seed=0)
        assert result.inertia == pytest.approx(0.0)

    def test_deterministic_by_seed(self):
        points = _two_blobs()
        a = kmeans(points, n_clusters=2, seed=4)
        b = kmeans(points, n_clusters=2, seed=4)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_validation(self):
        with pytest.raises(EmbeddingError):
            kmeans(np.ones(5), n_clusters=1)  # 1-D input
        with pytest.raises(EmbeddingError):
            kmeans(np.ones((5, 2)), n_clusters=0)
        with pytest.raises(EmbeddingError):
            kmeans(np.ones((3, 2)), n_clusters=4)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_points_rejected(self, bad):
        points = np.ones((6, 3))
        points[4, 1] = bad
        # Named up front instead of k-means++'s "Probabilities contain NaN".
        with pytest.raises(EmbeddingError, match="finite, row 4"):
            kmeans(points, n_clusters=2, seed=0)
