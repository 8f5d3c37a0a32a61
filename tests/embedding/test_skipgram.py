"""Tests for the SGNS trainer (and its scalar oracle) and the pair builder."""

import numpy as np
import pytest

from repro.embedding import build_skipgram_pairs, train_skipgram
from repro.embedding.skipgram import (
    _alias_table,
    _dense_context_update,
    _draw_negatives,
    _scatter_rows,
    count_skipgram_pairs,
    scatter_path,
)
from repro.errors import EmbeddingError

from tests.oracles.embedding import legacy_train_skipgram

#: The mini-batched trainer and its scalar oracle share one contract.
ENGINES = {"batched": train_skipgram, "legacy": legacy_train_skipgram}


@pytest.mark.parametrize("engine", ENGINES)
class TestTrainSkipgram:
    def test_output_shape(self, engine):
        walks = [[0, 1, 2, 1, 0], [2, 1, 0, 1, 2]]
        embeddings = ENGINES[engine](walks, num_nodes=3, dimensions=8, seed=0)
        assert embeddings.shape == (3, 8)
        assert np.isfinite(embeddings).all()

    def test_cooccurring_nodes_more_similar(self, engine):
        """Two tight 'communities' in the corpus: embeddings should place
        same-community nodes closer than cross-community ones."""
        rng = np.random.default_rng(0)
        walks = []
        for _ in range(150):
            walks.append(list(rng.permutation([0, 1, 2])))
            walks.append(list(rng.permutation([3, 4, 5])))
        embeddings = ENGINES[engine](
            walks, num_nodes=6, dimensions=16, epochs=5, seed=1)
        normalized = embeddings / np.linalg.norm(embeddings, axis=1, keepdims=True)
        same = normalized[0] @ normalized[1]
        cross = normalized[0] @ normalized[4]
        assert same > cross

    def test_deterministic(self, engine):
        walks = [[0, 1, 2], [2, 1, 0]]
        a = ENGINES[engine](walks, num_nodes=3, dimensions=4, seed=5)
        b = ENGINES[engine](walks, num_nodes=3, dimensions=4, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_unseen_nodes_keep_initialisation(self, engine):
        walks = [[0, 1], [1, 0]]
        embeddings = ENGINES[engine](walks, num_nodes=4, dimensions=4, seed=0)
        # nodes 2,3 never updated: still within the small init range
        assert np.abs(embeddings[2]).max() <= 0.5 / 4 + 1e-12

    def test_out_of_range_node_rejected(self, engine):
        with pytest.raises(EmbeddingError):
            ENGINES[engine]([[0, 7]], num_nodes=3)

    def test_negative_node_rejected(self, engine):
        with pytest.raises(EmbeddingError):
            ENGINES[engine]([[0, -1]], num_nodes=3)

    def test_empty_corpus_rejected(self, engine):
        with pytest.raises(EmbeddingError):
            ENGINES[engine]([], num_nodes=3)

    def test_matrix_input_matches_list_input(self, engine):
        """A dense walk matrix and the equivalent list corpus train to the
        exact same embeddings for the same seed."""
        matrix = np.array([[0, 1, 2, 1], [2, 1, 0, 1], [1, 2, 0, 2]])
        lists = matrix.tolist()
        from_matrix = ENGINES[engine](matrix, num_nodes=3, dimensions=4, seed=2)
        from_lists = ENGINES[engine](lists, num_nodes=3, dimensions=4, seed=2)
        np.testing.assert_array_equal(from_matrix, from_lists)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 0},
            {"num_nodes": 3, "dimensions": 0},
            {"num_nodes": 3, "window": 0},
            {"num_nodes": 3, "negatives": -1},
            {"num_nodes": 3, "epochs": 0},
            {"num_nodes": 3, "epochs": -1},
            {"num_nodes": 3, "epochs": 1.5},
            {"num_nodes": 3, "learning_rate": 0.0},
            {"num_nodes": 3, "learning_rate": -0.1},
            {"num_nodes": 3, "learning_rate": float("nan")},
            {"num_nodes": 3, "learning_rate": float("inf")},
            {"num_nodes": 3, "dimensions": True},
        ],
    )
    def test_parameter_validation(self, kwargs, engine):
        with pytest.raises(EmbeddingError):
            ENGINES[engine]([[0, 1]], **kwargs)

    @pytest.mark.parametrize(
        "name,value",
        [("learning_rate", float("nan")), ("learning_rate", float("inf")),
         ("epochs", 0)],
    )
    def test_error_names_the_argument(self, engine, name, value):
        with pytest.raises(EmbeddingError, match=name):
            ENGINES[engine]([[0, 1]], num_nodes=2, **{name: value})


class TestBatchedEngineOnly:
    def test_unknown_engine_rejected(self):
        # One engine per algorithm: the removed selector is rejected, not ignored.
        with pytest.raises(TypeError):
            train_skipgram([[0, 1]], num_nodes=2, engine="gpu")

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(EmbeddingError):
            train_skipgram([[0, 1]], num_nodes=2, batch_size=0)

    @pytest.mark.parametrize("batch_size", [2.5, True])
    def test_non_integer_batch_size_rejected(self, batch_size):
        with pytest.raises(EmbeddingError, match="batch_size"):
            train_skipgram([[0, 1]], num_nodes=2, batch_size=batch_size)

    def test_returns_float64(self):
        # Trains in float32, hands back the documented float64 table.
        embeddings = train_skipgram([[0, 1, 2]], num_nodes=3, dimensions=4, seed=0)
        assert embeddings.dtype == np.float64

    def test_scatter_path_trains_end_to_end(self):
        """A corpus above the dense cut-off trains on the flat scatter and
        still separates two co-occurrence communities."""
        rng = np.random.default_rng(0)
        num_nodes, dimensions, negatives = 60, 4, 1
        assert scatter_path(num_nodes, dimensions, negatives) == "scatter"
        walks = [
            list(rng.choice(block, size=12))
            for _ in range(200)
            for block in (np.arange(30), np.arange(30, 60))
        ]
        kwargs = dict(dimensions=dimensions, negatives=negatives, epochs=3, seed=1)
        embeddings = train_skipgram(walks, num_nodes, **kwargs)
        np.testing.assert_array_equal(
            embeddings, train_skipgram(walks, num_nodes, **kwargs)
        )
        unit = embeddings / np.linalg.norm(embeddings, axis=1, keepdims=True)
        similarity = unit @ unit.T
        same = (similarity[:30, :30].mean() + similarity[30:, 30:].mean()) / 2
        assert same > similarity[:30, 30:].mean() + 0.5

    def test_no_negatives_trains(self):
        walks = [[0, 1, 2], [2, 1, 0]]
        embeddings = train_skipgram(
            walks, num_nodes=3, dimensions=4, negatives=0, seed=0
        )
        assert np.isfinite(embeddings).all()


def _brute_force_pairs(walks, window):
    """The per-position sliding-window multiset the builder must match."""
    pairs = []
    for walk in walks:
        for position, center in enumerate(walk):
            lo = max(0, position - window)
            hi = min(len(walk), position + window + 1)
            for i in range(lo, hi):
                if i != position:
                    pairs.append((center, walk[i]))
    return sorted(pairs)


class TestBuildSkipgramPairs:
    @pytest.mark.parametrize("window", [1, 2, 5])
    def test_matches_brute_force(self, window):
        rng = np.random.default_rng(4)
        walks = [list(rng.integers(0, 8, size=rng.integers(1, 7))) for _ in range(20)]
        centers, contexts = build_skipgram_pairs(walks, window)
        assert sorted(zip(centers.tolist(), contexts.tolist())) == _brute_force_pairs(
            walks, window
        )

    def test_matrix_input_matches_brute_force(self):
        matrix = np.array([[0, 1, 2, 3], [3, 2, 1, 0]])
        centers, contexts = build_skipgram_pairs(matrix, 2)
        assert sorted(zip(centers.tolist(), contexts.tolist())) == _brute_force_pairs(
            matrix.tolist(), 2
        )

    def test_padding_never_pairs(self):
        matrix = np.array([[0, 1, -1, -1], [2, 3, 4, -1]])
        centers, contexts = build_skipgram_pairs(matrix, 3)
        assert (centers >= 0).all() and (contexts >= 0).all()
        assert sorted(zip(centers.tolist(), contexts.tolist())) == _brute_force_pairs(
            [[0, 1], [2, 3, 4]], 3
        )

    def test_window_too_small_rejected(self):
        with pytest.raises(EmbeddingError):
            build_skipgram_pairs([[0, 1]], 0)

    def test_single_node_walks_give_no_pairs(self):
        centers, contexts = build_skipgram_pairs([[0], [1]], 5)
        assert centers.size == 0 and contexts.size == 0


class TestAliasTable:
    """The alias table reproduces unigram^0.75 exactly, zeros included."""

    @staticmethod
    def _mass(accept, alias):
        n = accept.shape[0]
        mass = accept.copy()
        np.add.at(mass, alias, 1.0 - accept)
        return mass / n

    @pytest.mark.parametrize("seed", range(8))
    def test_reconstructed_mass_matches_target(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        frequency = rng.integers(0, 50, size=n).astype(np.float64)
        frequency[rng.random(n) < 0.3] = 0.0
        frequency[rng.integers(n)] += 1.0  # at least one node carries mass
        noise = frequency**0.75
        accept, alias = _alias_table(noise)
        np.testing.assert_allclose(
            self._mass(accept, alias), noise / noise.sum(), rtol=0, atol=1e-12
        )
        zero = frequency == 0
        assert (accept[zero] == 0).all()
        assert not np.isin(alias[accept < 1], np.flatnonzero(zero)).any()

    def test_zero_frequency_never_drawn(self):
        frequency = np.array([0, 5, 0, 1, 0, 40, 0], dtype=np.float64)
        accept, alias = _alias_table(frequency**0.75)
        draws = _draw_negatives(np.random.default_rng(0), accept, alias, (20_000, 5))
        assert set(np.unique(draws).tolist()) == {1, 3, 5}

    def test_draw_frequencies_match_target(self):
        rng = np.random.default_rng(3)
        frequency = rng.integers(0, 30, size=50).astype(np.float64)
        frequency[:5] = 0.0
        target = frequency**0.75 / (frequency**0.75).sum()
        accept, alias = _alias_table(frequency**0.75)
        draws = 1_000_000
        counts = np.bincount(
            _draw_negatives(rng, accept, alias, (draws // 5, 5)).ravel(),
            minlength=50,
        )
        expected = target * draws
        # Pearson chi-square over the support: 44 degrees of freedom,
        # 99.9th percentile ~ 78.7.
        support = expected > 0
        chi2 = (((counts - expected)[support]) ** 2 / expected[support]).sum()
        assert chi2 < 78.7
        assert (counts[~support] == 0).all()


class TestContextScatterPaths:
    """The dense GEMM path and the flat scatter apply the same update."""

    def _batch(self, seed, num_nodes=30, size=16, columns=4, dimensions=8):
        rng = np.random.default_rng(seed)
        context = rng.standard_normal((num_nodes, dimensions)).astype(np.float32)
        targets = rng.integers(num_nodes, size=(size, columns))
        # One center draws the same negative twice; another's negative
        # repeats its positive.
        targets[0, 2] = targets[0, 1]
        targets[3, 1] = targets[3, 0]
        gradient = rng.standard_normal((size, columns)).astype(np.float32)
        centers = rng.standard_normal((size, dimensions)).astype(np.float32)
        return context, targets, gradient, centers

    @staticmethod
    def _reference(context, targets, gradient, centers):
        expected = context.astype(np.float64)
        for b in range(targets.shape[0]):
            for k in range(targets.shape[1]):
                expected[targets[b, k]] += float(gradient[b, k]) * centers[b]
        return expected

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_matches_scatter(self, seed):
        context, targets, gradient, centers = self._batch(seed)
        expected = self._reference(context, targets, gradient, centers)

        scattered = context.copy()
        _scatter_rows(scattered, targets.ravel(), gradient[:, :, None] * centers[:, None, :])

        dense = context.copy()
        # A partial last batch uses the leading columns of a wider buffer.
        buffer = np.zeros((context.shape[0], targets.shape[0] + 5), dtype=np.float32)
        _dense_context_update(dense, buffer, targets, gradient, centers)

        np.testing.assert_allclose(scattered, expected, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(dense, expected, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(dense, scattered, rtol=1e-5, atol=1e-5)
        assert not buffer.any()  # zeroed for the next batch

    def test_cut_off_scales_with_negatives_and_dimensions(self):
        assert scatter_path(960, 32, 5) == "dense"
        assert scatter_path(961, 32, 5) == "scatter"
        assert scatter_path(961, 64, 5) == "dense"
        assert scatter_path(961, 32, 10) == "dense"


class TestCountSkipgramPairs:
    @pytest.mark.parametrize("window", [1, 3, 5])
    def test_matches_pair_builder(self, window):
        rng = np.random.default_rng(window)
        walks = [list(rng.integers(0, 8, size=rng.integers(1, 9))) for _ in range(15)]
        centers, _ = build_skipgram_pairs(walks, window)
        assert count_skipgram_pairs(walks, window) == centers.shape[0]
