"""Tests for the sharded runner: reconciliation, stats, fan-out."""

import numpy as np
import pytest

from repro.core import BM2Shedder, CRRShedder, compute_delta, round_half_up
from repro.core.discrepancy import ArrayDegreeTracker
from repro.graph import Graph
from repro.shard import SHARD_METHODS, ShardedShedder, partition_graph, reconcile_ids


def _edge_set(graph):
    return set(map(frozenset, graph.edges()))


class TestValidation:
    def test_methods_registry(self):
        assert SHARD_METHODS == ("crr", "bm2")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            ShardedShedder(method="uds")

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            ShardedShedder(num_shards=0)
        with pytest.raises(ValueError):
            ShardedShedder(num_workers=0)

    def test_bad_partition(self):
        with pytest.raises(ValueError):
            ShardedShedder(partition="bogus")

    def test_generator_seed_rejected(self):
        # Each shard replays the seed independently; a shared generator
        # cannot be replayed (or shipped to pool workers).
        with pytest.raises(ValueError):
            ShardedShedder(seed=np.random.default_rng(0))

    def test_bad_importance(self):
        with pytest.raises(ValueError):
            ShardedShedder(importance="bogus")

    def test_name_carries_method(self):
        assert ShardedShedder(method="crr").name == "ShardedCRR"
        assert ShardedShedder(method="bm2").name == "ShardedBM2"


class TestReduction:
    def test_crr_lands_on_whole_graph_target(self, small_powerlaw):
        # CRR's whole-graph engine pins exactly [p·m] kept edges; sharded
        # CRR must land on the same count.
        result = ShardedShedder(
            method="crr", num_shards=3, seed=1, num_betweenness_sources=16
        ).reduce(small_powerlaw, 0.5)
        assert result.reduced.num_edges == round_half_up(0.5 * small_powerlaw.num_edges)
        assert result.stats["reconcile_target"] == round_half_up(
            0.5 * small_powerlaw.num_edges
        )

    def test_bm2_count_is_shard_keeps_plus_admissions(self, small_powerlaw):
        # BM2's edge count is emergent (matched + repaired), so sharded
        # BM2 never demotes or force-fills — only improving admissions.
        result = ShardedShedder(method="bm2", num_shards=3, seed=1).reduce(
            small_powerlaw, 0.5
        )
        stats = result.stats
        assert stats["reconcile_target"] is None
        assert stats["demoted"] == 0
        assert stats["boundary_filled"] == 0
        shard_kept = sum(entry["kept_edges"] for entry in stats["per_shard"])
        assert result.reduced.num_edges == shard_kept + stats["boundary_admitted"]

    @pytest.mark.parametrize("method", SHARD_METHODS)
    def test_delta_within_documented_bound(self, small_powerlaw, method):
        result = ShardedShedder(
            method=method, num_shards=3, seed=1, num_betweenness_sources=16
        ).reduce(small_powerlaw, 0.5)
        assert result.delta <= result.stats["delta_bound"] + 1e-6

    def test_stats_shape(self, small_powerlaw):
        result = ShardedShedder(num_shards=3, seed=0, num_betweenness_sources=16).reduce(
            small_powerlaw, 0.5
        )
        stats = result.stats
        for key in (
            "num_shards",
            "num_workers",
            "partition",
            "per_shard",
            "shard_deltas",
            "boundary_edges",
            "boundary_admitted",
            "boundary_filled",
            "demoted",
            "delta_bound",
            "partition_seconds",
            "shard_seconds",
            "reconcile_seconds",
        ):
            assert key in stats, key
        assert len(stats["per_shard"]) == 3
        for entry in stats["per_shard"]:
            assert entry["seconds"] >= 0.0
            assert entry["kept_edges"] <= entry["interior_edges"]

    def test_deterministic_by_seed(self, small_powerlaw):
        a = ShardedShedder(num_shards=3, seed=5, num_betweenness_sources=16).reduce(
            small_powerlaw, 0.5
        )
        b = ShardedShedder(num_shards=3, seed=5, num_betweenness_sources=16).reduce(
            small_powerlaw, 0.5
        )
        assert a.reduced == b.reduced

    def test_reduced_is_subgraph_plus_preserved_nodes(self, small_powerlaw):
        result = ShardedShedder(num_shards=3, seed=0, num_betweenness_sources=16).reduce(
            small_powerlaw, 0.5
        )
        assert set(result.reduced.nodes()) == set(small_powerlaw.nodes())
        assert _edge_set(result.reduced) <= _edge_set(small_powerlaw)

    def test_delta_scored_by_compute_delta(self, small_powerlaw):
        result = ShardedShedder(num_shards=3, seed=0, num_betweenness_sources=16).reduce(
            small_powerlaw, 0.5
        )
        assert result.delta == pytest.approx(
            compute_delta(small_powerlaw, result.reduced, 0.5)
        )


class TestShardsOneExactness:
    def test_crr_matches_whole_graph_array_engine(self, small_powerlaw):
        whole = CRRShedder(seed=4, num_betweenness_sources=16).reduce(
            small_powerlaw, 0.5
        )
        sharded = ShardedShedder(
            method="crr", num_shards=1, seed=4, num_betweenness_sources=16
        ).reduce(small_powerlaw, 0.5)
        assert sharded.reduced == whole.reduced
        assert sharded.delta == whole.delta

    def test_bm2_matches_whole_graph_array_engine(self, small_powerlaw):
        whole = BM2Shedder(seed=4).reduce(small_powerlaw, 0.5)
        sharded = ShardedShedder(method="bm2", num_shards=1, seed=4).reduce(
            small_powerlaw, 0.5
        )
        assert sharded.reduced == whole.reduced
        assert sharded.delta == whole.delta


class TestWorkerFanOut:
    @pytest.mark.parametrize("method", SHARD_METHODS)
    def test_workers_bit_identical_to_serial(self, small_powerlaw, method):
        serial = ShardedShedder(
            method=method, num_shards=4, num_workers=1, seed=2, num_betweenness_sources=16
        ).reduce(small_powerlaw, 0.5)
        fanned = ShardedShedder(
            method=method, num_shards=4, num_workers=4, seed=2, num_betweenness_sources=16
        ).reduce(small_powerlaw, 0.5)
        assert fanned.reduced == serial.reduced
        assert fanned.delta == serial.delta

        def _without_timings(entries):
            return [{k: v for k, v in e.items() if k != "seconds"} for e in entries]

        assert _without_timings(fanned.stats["per_shard"]) == _without_timings(
            serial.stats["per_shard"]
        )


class TestReconcile:
    def test_reconcile_hits_target_and_reports(self, small_powerlaw):
        p = 0.5
        plan = partition_graph(small_powerlaw, 3, seed=0)
        # Degenerate shard results: every shard kept nothing — reconcile
        # must fill from interior-less state using boundary edges only up
        # to what exists, then stop.
        empty = np.empty(0, dtype=np.int64)
        stats = {}
        target = round_half_up(p * small_powerlaw.num_edges)
        kept_u, kept_v = reconcile_ids(
            plan.csr, p, empty, empty, plan.boundary_u, plan.boundary_v, stats,
            target=target,
        )
        assert kept_u.shape[0] == min(target, plan.num_boundary)
        assert stats["reconcile_target"] == target
        assert stats["boundary_admitted"] + stats["boundary_filled"] == kept_u.shape[0]

    def test_reconcile_demotes_over_budget_input(self, small_powerlaw):
        p = 0.3
        csr = small_powerlaw.csr()
        edge_u, edge_v = csr.edge_list_ids()
        empty = np.empty(0, dtype=np.int64)
        stats = {}
        target = round_half_up(p * small_powerlaw.num_edges)
        # Hand reconcile *all* edges as kept with no boundary: it must
        # demote down to the exact target.
        kept_u, kept_v = reconcile_ids(
            csr, p, edge_u, edge_v, empty, empty, stats, target=target
        )
        assert kept_u.shape[0] == target
        assert stats["demoted"] == small_powerlaw.num_edges - target
        # tracker delta must agree with an independently built tracker
        tracker = ArrayDegreeTracker(small_powerlaw, p)
        tracker.add_edges_ids(kept_u, kept_v)
        assert stats["tracker_delta"] == pytest.approx(tracker.delta)

    def test_reconcile_fills_from_interior_once_boundary_is_exhausted(self, small_powerlaw):
        p = 0.5
        plan = partition_graph(small_powerlaw, 3, seed=0)
        empty = np.empty(0, dtype=np.int64)
        stats = {}
        # More than the boundary can supply: the fill must continue with
        # shed interior edges and still land exactly on the target.
        target = plan.num_boundary + 3
        assert target <= small_powerlaw.num_edges
        kept_u, kept_v = reconcile_ids(
            plan.csr, p, empty, empty, plan.boundary_u, plan.boundary_v, stats,
            target=target,
        )
        assert kept_u.shape[0] == target
        keys = set(zip(np.minimum(kept_u, kept_v).tolist(), np.maximum(kept_u, kept_v).tolist()))
        assert len(keys) == target
        assert stats["boundary_admitted"] + stats["boundary_filled"] == target

    def test_per_shard_rounding_shortfall_still_hits_target(self):
        # Two 2-edge shards at p=0.7 keep round(1.4)=1 each; with the single
        # boundary edge that is 3, but the whole graph wants round(3.5)=4.
        g = Graph(nodes=range(6))
        for u, v in [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5)]:
            g.add_edge(u, v)
        result = ShardedShedder(
            method="crr", num_shards=2, seed=1, importance="random"
        ).reduce(g, 0.7)
        assert result.reduced.num_edges == round_half_up(0.7 * g.num_edges)
        assert result.delta <= result.stats["delta_bound"] + 1e-6
