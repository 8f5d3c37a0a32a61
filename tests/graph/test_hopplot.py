"""Tests for hop-plot computation."""

import pytest

from repro.graph import Graph, hop_plot, path_graph, reachable_pair_fraction


class TestHopPlot:
    def test_cumulative_non_decreasing(self, small_powerlaw):
        plot = hop_plot(small_powerlaw)
        values = [plot[k] for k in sorted(plot)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_reachable_normalisation_tops_at_one(self):
        g = Graph(edges=[(0, 1), (2, 3)])  # disconnected
        plot = hop_plot(g, normalize="reachable")
        assert plot[max(plot)] == pytest.approx(1.0)

    def test_all_normalisation_below_one_when_disconnected(self):
        g = Graph(edges=[(0, 1), (2, 3)])
        plot = hop_plot(g, normalize="all")
        assert plot[max(plot)] < 1.0

    def test_connected_graph_tops_at_one_either_way(self, cycle6):
        for normalize in ("reachable", "all"):
            plot = hop_plot(cycle6, normalize=normalize)
            assert plot[max(plot)] == pytest.approx(1.0)

    def test_path_graph_exact_values(self):
        g = path_graph(3)  # pairs: (0,1),(1,2) at d=1; (0,2) at d=2
        plot = hop_plot(g, normalize="all")
        assert plot[1] == pytest.approx(4 / 6)
        assert plot[2] == pytest.approx(1.0)

    def test_max_hops_truncates(self, small_powerlaw):
        plot = hop_plot(small_powerlaw, max_hops=2)
        assert max(plot) <= 2

    @pytest.mark.parametrize("max_hops", [0, -3])
    def test_max_hops_below_one_rejected(self, cycle6, max_hops):
        with pytest.raises(ValueError, match=f"max_hops must be at least 1, got {max_hops}"):
            hop_plot(cycle6, max_hops=max_hops)

    def test_tiny_graphs(self):
        assert hop_plot(Graph()) == {}
        assert hop_plot(Graph(nodes=[1])) == {}
        assert hop_plot(Graph(nodes=[1, 2])) == {}

    def test_invalid_normalize(self, cycle6):
        with pytest.raises(ValueError):
            hop_plot(cycle6, normalize="bogus")

    def test_sampled_close_to_exact(self, medium_powerlaw):
        exact = hop_plot(medium_powerlaw)
        sampled = hop_plot(medium_powerlaw, num_sources=150, seed=7)
        for hops in exact:
            if hops in sampled:
                assert sampled[hops] == pytest.approx(exact[hops], abs=0.1)


class TestReachableFraction:
    def test_connected(self, k5):
        assert reachable_pair_fraction(k5) == pytest.approx(1.0)

    def test_disconnected(self):
        g = Graph(edges=[(0, 1)], nodes=[2])
        # reachable ordered pairs: (0,1),(1,0) of 3*2=6
        assert reachable_pair_fraction(g) == pytest.approx(2 / 6)

    def test_edgeless(self):
        assert reachable_pair_fraction(Graph(nodes=[1, 2, 3])) == 0.0
