"""Tests for the shared seeded source-sampling helper.

All sampled estimators (betweenness, distance sweeps, closeness) route
through :mod:`repro.graph.sampling`, so the determinism contract pinned
here — identical picks for identical seeds, rng untouched when sampling
is a no-op — is what keeps fixed-seed experiment outputs reproducible.
"""

import re

import numpy as np
import pytest

from repro.graph import erdos_renyi, select_source_ids, select_sources
from repro.rng import ensure_rng


class TestSelectSourceIds:
    def test_none_returns_all_ids(self):
        ids, scale = select_source_ids(7, None, seed=0)
        assert ids.tolist() == list(range(7))
        assert scale == 1.0

    def test_oversized_request_returns_all_ids(self):
        ids, scale = select_source_ids(5, 99, seed=0)
        assert ids.tolist() == list(range(5))
        assert scale == 1.0

    def test_no_op_sampling_does_not_consume_rng(self):
        """When every node is a source the rng stream must stay untouched —
        callers (e.g. CRR) share one stream across stages."""
        rng = ensure_rng(42)
        select_source_ids(10, None, seed=rng)
        select_source_ids(10, 10, seed=rng)
        expected = ensure_rng(42).random()
        assert rng.random() == expected

    def test_identical_seeds_identical_picks(self):
        first, _ = select_source_ids(100, 12, seed=2024)
        second, _ = select_source_ids(100, 12, seed=2024)
        assert first.tolist() == second.tolist()

    def test_different_seeds_differ(self):
        first, _ = select_source_ids(1000, 10, seed=1)
        second, _ = select_source_ids(1000, 10, seed=2)
        assert first.tolist() != second.tolist()

    def test_scale_is_inverse_sampling_fraction(self):
        _, scale = select_source_ids(100, 25, seed=0)
        assert scale == pytest.approx(4.0)

    def test_picks_are_valid_and_distinct(self):
        ids, _ = select_source_ids(50, 20, seed=7)
        assert ids.dtype == np.int64
        assert len(set(ids.tolist())) == 20
        assert all(0 <= i < 50 for i in ids.tolist())

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            select_source_ids(10, 0, seed=0)
        with pytest.raises(ValueError):
            select_source_ids(10, -3, seed=0)

    @pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0), "4"])
    def test_non_integer_rejected_before_any_draw(self, bad):
        rng = ensure_rng(42)
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            select_source_ids(10, bad, seed=rng)
        assert rng.random() == ensure_rng(42).random()

    def test_oversized_non_integer_rejected(self):
        with pytest.raises(ValueError, match="99.5"):
            select_source_ids(10, 99.5, seed=0)

    def test_numpy_integer_accepted(self):
        ids, _ = select_source_ids(10, np.int32(3), seed=0)
        assert ids.tolist() == select_source_ids(10, 3, seed=0)[0].tolist()


class TestSelectSources:
    def test_labels_match_ids(self):
        graph = erdos_renyi(40, 0.1, seed=5)
        nodes, scale = select_sources(graph, 8, seed=123)
        ids, id_scale = select_source_ids(40, 8, seed=123)
        labels = graph.csr().labels
        assert nodes == [labels[i] for i in ids.tolist()]
        assert scale == id_scale

    def test_all_nodes_in_insertion_order(self):
        graph = erdos_renyi(15, 0.2, seed=9)
        nodes, scale = select_sources(graph, None, seed=None)
        assert nodes == list(graph.nodes())
        assert scale == 1.0
