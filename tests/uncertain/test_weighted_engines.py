"""CRR/BM2 on weighted graphs: degeneration, quality, pins and kernels.

There is one CRR and one BM2 shedder; each optimises the expected-degree
objective exactly when its input carries edge probabilities.  The
weight-blind baseline comes from :mod:`tests.oracles.uncertain`.
"""

import hashlib

import numpy as np
import pytest

from repro.core import BM2Shedder, CRRShedder
from repro.core.bm2 import bm2_reduce_ids, weighted_bipartite_repair_ids
from repro.core.crr import crr_reduce_ids
from repro.core.discrepancy import ArrayDegreeTracker
from repro.errors import GraphError
from repro.graph.matching import greedy_weighted_b_matching_ids
from repro.uncertain import attach_random_weights, uncertain_erdos_renyi

from tests.oracles.uncertain import strip_weights, weight_blind_reduce


def _edge_set(graph):
    return sorted(graph.edges())


def _all_ones(graph):
    ones = graph.copy()
    for u, v in ones.edges():
        ones.set_edge_weight(u, v, 1.0)
    assert ones.is_weighted
    return ones


def _kept_edge_digest(graph):
    """sha256 over the reduced graph's ``u|v|weight`` lines in edge order."""
    hasher = hashlib.sha256()
    for u, v in graph.edges():
        hasher.update(f"{u!r}|{v!r}|{graph.edge_weight(u, v)!r}\n".encode())
    return hasher.hexdigest()


class TestDegeneration:
    """An all-ones weight field runs the weighted objective, and it is
    bit-identical to the unweighted run on the same topology."""

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_wbm2_equals_bm2_on_unweighted(self, small_powerlaw, p):
        plain = BM2Shedder(seed=0).reduce(small_powerlaw, p)
        weighted = BM2Shedder(seed=0).reduce(_all_ones(small_powerlaw), p)
        assert weighted.stats["weighted"] is True
        assert weighted.stats["repair_engine"] == "weighted-heap"
        assert "weighted" not in plain.stats
        assert plain.stats["repair_engine"] == "bucket"
        assert _edge_set(weighted.reduced) == _edge_set(plain.reduced)
        assert weighted.delta == plain.delta

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_wcrr_equals_crr_on_unweighted(self, small_powerlaw, p):
        plain = CRRShedder(seed=0).reduce(small_powerlaw, p)
        weighted = CRRShedder(seed=0).reduce(_all_ones(small_powerlaw), p)
        assert weighted.stats["weighted"] is True
        assert "weighted" not in plain.stats
        assert _edge_set(weighted.reduced) == _edge_set(plain.reduced)
        assert weighted.delta == plain.delta
        assert (
            weighted.stats["accepted_swaps"] == plain.stats["accepted_swaps"]
        )

    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_all_ones_weights_identical(self, small_powerlaw, p):
        # The id cores keep the same edges in the same order, with the same
        # tracker delta, whichever objective the snapshot selects.
        plain_csr = small_powerlaw.csr()
        ones_csr = _all_ones(small_powerlaw).csr()
        assert ones_csr.is_weighted and not plain_csr.is_weighted
        plain_stats, ones_stats = {}, {}
        plain = bm2_reduce_ids(plain_csr, p, plain_stats, seed=0)
        ones = bm2_reduce_ids(ones_csr, p, ones_stats, seed=0)
        assert all(np.array_equal(a, b) for a, b in zip(plain, ones))
        assert ones_stats["tracker_delta"] == plain_stats["tracker_delta"]
        plain_stats, ones_stats = {}, {}
        plain = crr_reduce_ids(plain_csr, p, np.random.default_rng(0), plain_stats)
        ones = crr_reduce_ids(ones_csr, p, np.random.default_rng(0), ones_stats)
        assert all(np.array_equal(a, b) for a, b in zip(plain, ones))
        assert ones_stats["tracker_delta"] == plain_stats["tracker_delta"]

    def test_sparse_variant_degenerates_too(self, small_powerlaw):
        plain = BM2Shedder(seed=0, sparsify="edcs").reduce(small_powerlaw, 0.5)
        weighted = BM2Shedder(seed=0, sparsify="edcs").reduce(
            _all_ones(small_powerlaw), 0.5
        )
        assert _edge_set(weighted.reduced) == _edge_set(plain.reduced)


class TestQuality:
    """On probabilistic inputs the expected-degree objective strictly beats
    the weight-blind reduction of the same topology at equal p."""

    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_weighted_bm2_beats_blind_bm2(self, p):
        graph = uncertain_erdos_renyi(300, 0.034, seed=11)
        aware = BM2Shedder(seed=0).reduce(graph, p)
        _, blind_edd = weight_blind_reduce(BM2Shedder(seed=0), graph, p)
        assert aware.stats["expected_degree_distance"] < blind_edd

    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_weighted_crr_beats_blind_crr(self, p):
        graph = uncertain_erdos_renyi(300, 0.034, seed=11)
        aware = CRRShedder(seed=0).reduce(graph, p)
        _, blind_edd = weight_blind_reduce(CRRShedder(seed=0), graph, p)
        assert aware.stats["expected_degree_distance"] < blind_edd

    def test_stats_carry_weighted_provenance(self):
        graph = uncertain_erdos_renyi(100, 0.08, seed=1)
        result = BM2Shedder(seed=0).reduce(graph, 0.5)
        assert result.stats["weighted"] is True
        assert result.stats["repair_engine"] == "weighted-heap"
        assert result.method == "BM2"
        assert result.reduced.is_weighted
        crr = CRRShedder(seed=0, num_betweenness_sources=8).reduce(graph, 0.5)
        assert crr.stats["weighted"] is True
        assert crr.method == "CRR"


class TestRecordedOutputs:
    """Kept-edge digests recorded from the former ``WeightedBM2Shedder`` /
    ``WeightedCRRShedder`` classes (same seeds): the merged shedders must
    reproduce them bit for bit."""

    GRAPH = staticmethod(lambda: uncertain_erdos_renyi(300, 0.034, seed=11))

    @pytest.mark.parametrize(
        "make, digest",
        [
            (
                lambda: BM2Shedder(seed=0),
                "8a79de053a822b222c55801fce9330e146018c55dcf3ab6bb41fc23c6e255ec2",
            ),
            (
                lambda: BM2Shedder(seed=0, sparsify="edcs", sparsify_beta=2),
                "b93d93bddbe340f56fea5ae2246b5de5745e6b365a2e443520cd2e3284ff5848",
            ),
            (
                lambda: CRRShedder(seed=0),
                "1e5dd8e9a51449f982ecd35c5831250f91fe7a2d6b73e7b72176998340873430",
            ),
            (
                lambda: CRRShedder(seed=3, num_betweenness_sources=8),
                "606be76a70f4eca97caf4bb96383eafa777eaf33a5c25dde07e680087f86ba0b",
            ),
        ],
        ids=["bm2", "bm2-edcs-beta2", "crr", "crr-8-sources"],
    )
    def test_kept_edges_match_recorded_digest(self, make, digest):
        result = make().reduce(self.GRAPH(), 0.5)
        assert _kept_edge_digest(result.reduced) == digest

    def test_blind_baseline_matches_recorded_distance(self):
        # The former weight-blind run (BM2Shedder on the weighted graph)
        # reported this expected-degree distance; the stripped-graph
        # baseline reproduces it.
        graph = self.GRAPH()
        topology = strip_weights(graph)
        assert not topology.is_weighted
        assert list(topology.nodes()) == list(graph.nodes())
        assert list(topology.edges()) == list(graph.edges())
        _, blind_edd = weight_blind_reduce(BM2Shedder(seed=0), graph, 0.5, topology)
        assert blind_edd == pytest.approx(165.6536972708589, rel=1e-12)

    def test_weights_attached_in_place_select_the_objective(self, small_powerlaw):
        graph = small_powerlaw.copy()
        before = BM2Shedder(seed=0).reduce(graph, 0.5)
        attach_random_weights(graph, seed=0)
        after = BM2Shedder(seed=0).reduce(graph, 0.5)
        assert "weighted" not in before.stats
        assert after.stats["weighted"] is True


class TestWeightedBMatching:
    def test_respects_fractional_capacities(self):
        edge_u = np.array([0, 0, 1], dtype=np.int64)
        edge_v = np.array([1, 2, 2], dtype=np.int64)
        weights = np.array([0.6, 0.6, 0.3])
        caps = np.array([1.0, 0.8, 1.0])
        kept = greedy_weighted_b_matching_ids(edge_u, edge_v, weights, caps)
        # (0,1) fits (loads 0.6/0.6); (0,2) would push node 0 to 1.2 > 1.0;
        # (1,2) would push node 1 to 0.9 > 0.8.
        assert kept.tolist() == [True, False, False]

    def test_all_ones_matches_integer_matching(self, small_powerlaw):
        from repro.graph.matching import greedy_b_matching_ids

        csr = small_powerlaw.csr()
        edge_u, edge_v = csr.edge_list_ids()
        caps_int = np.full(csr.num_nodes, 3, dtype=np.int64)
        ones = np.ones(edge_u.shape[0])
        kept_w = greedy_weighted_b_matching_ids(
            edge_u, edge_v, ones, caps_int.astype(np.float64)
        )
        kept_i = greedy_b_matching_ids(edge_u, edge_v, caps_int)
        assert np.array_equal(kept_w, kept_i)

    def test_rejects_negative_inputs(self):
        edge_u = np.array([0], dtype=np.int64)
        edge_v = np.array([1], dtype=np.int64)
        with pytest.raises(GraphError):
            greedy_weighted_b_matching_ids(
                edge_u, edge_v, np.array([-0.1]), np.array([1.0, 1.0])
            )
        with pytest.raises(GraphError):
            greedy_weighted_b_matching_ids(
                edge_u, edge_v, np.array([0.5]), np.array([-1.0, 1.0])
            )


class TestWeightedRepair:
    def test_requires_weighted_tracker(self, small_powerlaw):
        csr = small_powerlaw.csr()
        tracker = ArrayDegreeTracker.from_csr(csr, 0.5, weighted=False)
        with pytest.raises(ValueError):
            weighted_bipartite_repair_ids(
                tracker,
                np.array([0], dtype=np.int64),
                np.array([1], dtype=np.int64),
            )

    def test_repair_never_increases_delta(self):
        graph = uncertain_erdos_renyi(120, 0.08, seed=3)
        csr = graph.csr()
        tracker = ArrayDegreeTracker.from_csr(csr, 0.5, weighted=True)
        # Start from the empty reduction: every dis(v) = -p*E[deg] <= 0.
        before = tracker.delta
        edge_u, edge_v = csr.edge_list_ids()
        sel_a, sel_b = weighted_bipartite_repair_ids(tracker, edge_u, edge_v)
        assert tracker.delta <= before
        assert sel_a.shape == sel_b.shape
        assert sel_a.shape[0] <= edge_u.shape[0]
