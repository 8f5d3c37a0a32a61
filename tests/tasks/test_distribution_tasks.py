"""Tests for the five characteristic tasks (1-5)."""

import pytest

from repro.core import BM2Shedder, RandomShedder
from repro.errors import TaskError
from repro.tasks import (
    BetweennessCentralityTask,
    ClusteringCoefficientTask,
    DegreeDistributionTask,
    HopPlotTask,
    ShortestPathDistanceTask,
)


class TestDegreeDistributionTask:
    def test_identity_utility_is_one(self, small_powerlaw):
        task = DegreeDistributionTask()
        artifact = task.compute(small_powerlaw, scale=1.0)
        assert task.utility(artifact, artifact) == pytest.approx(1.0)

    def test_artifact_sums_to_one(self, small_powerlaw):
        task = DegreeDistributionTask()
        value = task.compute(small_powerlaw).value
        assert sum(value.values()) == pytest.approx(1.0)

    def test_rescaling_estimates_original(self, star4):
        """The 1/p estimator maps reduced degrees back to original scale."""
        task = DegreeDistributionTask()
        # a 'reduced' star where the hub kept 2 of 4 edges, scale 0.5
        reduced = star4.edge_subgraph([(0, 1), (0, 2)])
        estimated = task.compute(reduced, scale=0.5).value
        assert 4 in estimated  # hub degree 2 / 0.5 -> 4

    def test_no_rescale_mode(self, star4):
        task = DegreeDistributionTask(rescale=False)
        reduced = star4.edge_subgraph([(0, 1), (0, 2)])
        raw = task.compute(reduced, scale=0.5).value
        assert 2 in raw and 4 not in raw

    def test_cap(self, star4):
        task = DegreeDistributionTask(cap=2, rescale=False)
        value = task.compute(star4).value
        assert max(value) == 2

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            DegreeDistributionTask(cap=0)

    def test_invalid_scale(self, star4):
        with pytest.raises(TaskError):
            DegreeDistributionTask().compute(star4, scale=0.0)

    def test_bm2_beats_random_on_utility(self, medium_powerlaw):
        task = DegreeDistributionTask()
        bm2 = BM2Shedder(seed=0).reduce(medium_powerlaw, 0.4)
        random_shed = RandomShedder(seed=0).reduce(medium_powerlaw, 0.4)
        assert task.evaluate(medium_powerlaw, bm2).utility >= task.evaluate(
            medium_powerlaw, random_shed
        ).utility


class TestShortestPathDistanceTask:
    def test_identity_utility(self, small_powerlaw):
        task = ShortestPathDistanceTask(seed=0)
        artifact = task.compute(small_powerlaw)
        assert task.utility(artifact, artifact) == pytest.approx(1.0)

    def test_artifact_is_distribution(self, small_powerlaw):
        value = ShortestPathDistanceTask(seed=0).compute(small_powerlaw).value
        assert sum(value.values()) == pytest.approx(1.0)

    def test_evaluate_returns_fields(self, small_powerlaw):
        task = ShortestPathDistanceTask(num_sources=32, seed=0)
        result = BM2Shedder(seed=0).reduce(small_powerlaw, 0.6)
        evaluation = task.evaluate(small_powerlaw, result)
        assert 0.0 <= evaluation.utility <= 1.0
        assert evaluation.details["method"] == "BM2"
        assert evaluation.analysis_seconds >= 0


class TestBetweennessTask:
    def test_identity_utility(self, small_powerlaw):
        task = BetweennessCentralityTask(seed=0)
        artifact = task.compute(small_powerlaw)
        assert task.utility(artifact, artifact) == pytest.approx(1.0)

    def test_binned_keys_are_powers_of_two(self, small_powerlaw):
        value = BetweennessCentralityTask(seed=0).compute(small_powerlaw).value
        for key in value:
            assert key & (key - 1) == 0  # power of two

    def test_unbinned_mode(self, small_powerlaw):
        value = BetweennessCentralityTask(binned=False, seed=0).compute(small_powerlaw).value
        degrees = {small_powerlaw.degree(n) for n in small_powerlaw.nodes() if small_powerlaw.degree(n) > 0}
        assert set(value) == degrees

    def test_isolated_nodes_excluded(self):
        from repro.graph import Graph

        g = Graph(edges=[(0, 1), (1, 2)], nodes=[9])
        value = BetweennessCentralityTask(seed=0).compute(g).value
        assert all(key >= 1 for key in value)


class TestClusteringTask:
    def test_identity_utility(self, small_powerlaw):
        task = ClusteringCoefficientTask()
        artifact = task.compute(small_powerlaw)
        assert task.utility(artifact, artifact) == pytest.approx(1.0)

    def test_triangle_curve(self, triangle):
        value = ClusteringCoefficientTask().compute(triangle).value
        assert value == {2: pytest.approx(1.0)}

    def test_low_degree_excluded(self, path5):
        value = ClusteringCoefficientTask().compute(path5).value
        assert value == {2: pytest.approx(0.0)}


class TestHopPlotTask:
    def test_identity_utility(self, small_powerlaw):
        task = HopPlotTask(seed=0)
        artifact = task.compute(small_powerlaw)
        assert task.utility(artifact, artifact) == pytest.approx(1.0)

    def test_curve_cumulative(self, small_powerlaw):
        value = HopPlotTask(seed=0).compute(small_powerlaw).value
        hops = sorted(value)
        assert all(value[a] <= value[b] for a, b in zip(hops, hops[1:]))

    def test_reachable_normalisation_tops_at_one(self, small_powerlaw):
        value = HopPlotTask(seed=0).compute(small_powerlaw).value
        assert value[max(value)] == pytest.approx(1.0)

    @pytest.mark.parametrize("max_hops", [0, -3])
    def test_max_hops_below_one_rejected_at_construction(self, max_hops):
        with pytest.raises(ValueError, match=f"max_hops must be at least 1, got {max_hops}"):
            HopPlotTask(max_hops=max_hops)
