"""Unit tests for the core Graph data structure."""

import pytest

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError, SelfLoopError
from repro.graph import Graph


class TestConstruction:
    def test_empty_graph(self, empty_graph):
        assert empty_graph.num_nodes == 0
        assert empty_graph.num_edges == 0
        assert list(empty_graph.nodes()) == []
        assert list(empty_graph.edges()) == []

    def test_from_edges(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_isolated_nodes_via_constructor(self):
        g = Graph(edges=[(1, 2)], nodes=[5, 6])
        assert g.num_nodes == 4
        assert g.degree(5) == 0

    def test_duplicate_edges_collapse(self):
        g = Graph(edges=[(1, 2), (2, 1), (1, 2)])
        assert g.num_edges == 1

    def test_string_node_labels(self):
        g = Graph(edges=[("a", "b")])
        assert g.has_edge("a", "b")
        assert g.degree("a") == 1


class TestAddRemove:
    def test_add_node_returns_true_once(self):
        g = Graph()
        assert g.add_node(7) is True
        assert g.add_node(7) is False
        assert g.num_nodes == 1

    def test_add_edge_creates_endpoints(self):
        g = Graph()
        assert g.add_edge(1, 2) is True
        assert g.has_node(1) and g.has_node(2)

    def test_add_existing_edge_returns_false(self):
        g = Graph(edges=[(1, 2)])
        assert g.add_edge(2, 1) is False
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(SelfLoopError):
            g.add_edge(3, 3)

    def test_remove_edge(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        g.remove_edge(2, 1)
        assert g.num_edges == 1
        assert not g.has_edge(1, 2)

    def test_remove_missing_edge_raises(self):
        g = Graph(edges=[(1, 2)])
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(1, 3)

    def test_discard_edge(self):
        g = Graph(edges=[(1, 2)])
        assert g.discard_edge(1, 2) is True
        assert g.discard_edge(1, 2) is False
        assert g.num_edges == 0

    def test_remove_node_removes_incident_edges(self, star4):
        star4.remove_node(0)
        assert star4.num_nodes == 4
        assert star4.num_edges == 0

    def test_remove_missing_node_raises(self):
        with pytest.raises(NodeNotFoundError):
            Graph().remove_node(1)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestWeightValidation:
    @pytest.mark.parametrize("weight", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_add_edge_rejects_non_finite_weight(self, weight):
        g = Graph(edges=[(0, 1)])
        with pytest.raises(GraphError):
            g.add_edge(1, 2, weight=weight)
        # Rejected before any mutation: no endpoint, no edge, no weights.
        assert g == Graph(edges=[(0, 1)])
        assert not g.is_weighted

    @pytest.mark.parametrize("weight", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_set_edge_weight_rejects_non_finite_weight(self, weight):
        g = Graph()
        g.add_edge(1, 2, weight=0.5)
        with pytest.raises(GraphError):
            g.set_edge_weight(1, 2, weight)
        with pytest.raises(GraphError):
            g.add_edge(1, 2, weight=weight)  # re-add routes through the setter
        assert g.edge_weight(1, 2) == 0.5


class TestInspection:
    def test_degree(self, star4):
        assert star4.degree(0) == 4
        assert star4.degree(1) == 1

    def test_degree_missing_node(self, star4):
        with pytest.raises(NodeNotFoundError):
            star4.degree(99)

    def test_neighbors(self, triangle):
        assert sorted(triangle.neighbors(0)) == [1, 2]

    def test_neighbors_missing_node(self, triangle):
        with pytest.raises(NodeNotFoundError):
            list(triangle.neighbors(42))

    def test_edges_canonical_and_unique(self):
        g = Graph(edges=[(2, 1), (3, 2), (1, 3)])
        edges = list(g.edges())
        assert len(edges) == 3
        assert len(set(edges)) == 3
        # canonical orientation: earlier-inserted endpoint first
        assert (2, 1) in edges  # node 2 inserted before node 1

    def test_canonical_edge_orientation_stable(self):
        g = Graph(edges=[(5, 9)])
        assert g.canonical_edge(9, 5) == (5, 9)
        assert g.canonical_edge(5, 9) == (5, 9)

    def test_canonical_edge_missing_node(self):
        g = Graph(edges=[(1, 2)])
        with pytest.raises(NodeNotFoundError):
            g.canonical_edge(1, 77)

    def test_degrees_mapping(self, star4):
        degrees = star4.degrees()
        assert degrees[0] == 4
        assert all(degrees[leaf] == 1 for leaf in range(1, 5))

    def test_average_degree(self, triangle):
        assert triangle.average_degree() == pytest.approx(2.0)

    def test_average_degree_empty(self, empty_graph):
        assert empty_graph.average_degree() == 0.0

    def test_density(self, k5):
        assert k5.density() == pytest.approx(1.0)

    def test_density_trivial(self):
        assert Graph(nodes=[1]).density() == 0.0

    def test_len_iter_contains(self, triangle):
        assert len(triangle) == 3
        assert set(triangle) == {0, 1, 2}
        assert 1 in triangle
        assert 9 not in triangle


class TestDerivedGraphs:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.remove_edge(0, 1)
        assert triangle.has_edge(0, 1)
        assert not clone.has_edge(0, 1)
        assert clone.num_nodes == 3

    def test_copy_equals_original(self, figure1):
        assert figure1.copy() == figure1

    def test_edge_subgraph_keeps_all_nodes(self, figure1):
        sub = figure1.edge_subgraph([("u1", "u7")])
        assert sub.num_nodes == figure1.num_nodes
        assert sub.num_edges == 1

    def test_edge_subgraph_endpoint_only(self, figure1):
        sub = figure1.edge_subgraph([("u1", "u7")], keep_all_nodes=False)
        assert sub.num_nodes == 2

    def test_edge_subgraph_rejects_foreign_edges(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.edge_subgraph([(0, 99)])

    def test_node_subgraph(self, k5):
        sub = k5.node_subgraph([0, 1, 2])
        assert sub.num_nodes == 3
        assert sub.num_edges == 3

    def test_node_subgraph_missing_node(self, k5):
        with pytest.raises(NodeNotFoundError):
            k5.node_subgraph([0, 77])

    def test_equality_structural(self):
        a = Graph(edges=[(1, 2), (2, 3)])
        b = Graph(edges=[(2, 3), (1, 2)])
        assert a == b

    def test_inequality_different_edges(self):
        a = Graph(edges=[(1, 2)])
        b = Graph(edges=[(1, 3)])
        assert a != b

    def test_equality_other_type(self, triangle):
        assert triangle != "not a graph"

    def test_repr(self, triangle):
        assert "num_nodes=3" in repr(triangle)
        assert "num_edges=3" in repr(triangle)


class TestCSRCacheInvalidation:
    """Audit of the csr() cache against the mutation counter.

    The cache must never serve a snapshot older than the live graph: every
    mutating path bumps ``version`` and the cache is only served while its
    recorded version matches.
    """

    def test_csr_cached_between_calls(self, triangle):
        assert triangle.csr() is triangle.csr()

    def test_cached_csr_peek_without_build(self, triangle):
        assert triangle.cached_csr() is None
        snapshot = triangle.csr()
        assert triangle.cached_csr() is snapshot

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_node(99),
            lambda g: g.add_edge(0, 99),
            lambda g: g.remove_edge(0, 1),
            lambda g: g.discard_edge(0, 1),
            lambda g: g.remove_node(0),
        ],
        ids=["add_node", "add_edge", "remove_edge", "discard_edge", "remove_node"],
    )
    def test_every_mutation_invalidates(self, triangle, mutate):
        stale = triangle.csr()
        version_before = triangle.version
        mutate(triangle)
        assert triangle.version > version_before
        assert triangle.cached_csr() is None
        fresh = triangle.csr()
        assert fresh is not stale
        assert fresh.num_nodes == triangle.num_nodes
        assert fresh.num_edges == triangle.num_edges

    def test_noop_mutations_keep_cache(self, triangle):
        snapshot = triangle.csr()
        assert triangle.add_node(0) is False  # already present
        assert triangle.add_edge(0, 1) is False  # already present
        assert triangle.discard_edge(0, 42) is False  # never existed
        assert triangle.cached_csr() is snapshot

    def test_copy_shares_cache_until_either_mutates(self, triangle):
        snapshot = triangle.csr()
        clone = triangle.copy()
        assert clone.cached_csr() is snapshot
        clone.add_edge(0, 3)
        assert clone.cached_csr() is None
        # the original's cache must survive the clone's mutation
        assert triangle.cached_csr() is snapshot
        assert clone.csr().num_edges == 4

    def test_stale_version_cannot_be_served(self, triangle):
        """Even if a stale snapshot object is still referenced somewhere,
        csr() rebuilds: the recorded version no longer matches."""
        stale = triangle.csr()
        triangle.add_edge(1, 3)
        rebuilt = triangle.csr()
        assert rebuilt is not stale
        assert rebuilt.num_edges == 4
        assert stale.num_edges == 3  # old snapshot is frozen, not mutated
