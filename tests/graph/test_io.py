"""Tests for graph I/O."""

import json

import pytest

from repro.errors import GraphError
from repro.graph import (
    Graph,
    read_edge_list,
    read_edge_list_with_summary,
    read_json,
    write_edge_list,
    write_json,
)
from repro.graph.io import graph_from_payload


class TestEdgeList:
    def test_round_trip(self, tmp_path, figure1):
        path = tmp_path / "g.txt"
        write_edge_list(figure1, path)
        loaded = read_edge_list(path)
        assert loaded == figure1

    def test_header_written(self, tmp_path, triangle):
        path = tmp_path / "g.txt"
        write_edge_list(triangle, path, header="my graph")
        content = path.read_text()
        assert content.startswith("# my graph")
        assert "# nodes: 3 edges: 3" in content

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n\n% other comment\n1 2\n2 3\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_integer_nodes_parsed(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1\t2\n")
        g = read_edge_list(path)
        assert g.has_edge(1, 2)
        assert not g.has_node("1")

    def test_string_nodes_preserved(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("alice bob\n")
        g = read_edge_list(path)
        assert g.has_edge("alice", "bob")

    def test_self_loops_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 1

    def test_duplicate_lines_collapse(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n2 1\n1 2\n")
        assert read_edge_list(path).num_edges == 1

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("justonetoken\n")
        with pytest.raises(GraphError):
            read_edge_list(path)


class TestParseSummary:
    def test_counts_all_line_categories(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n% note\n1 2\n2 1\n3 3\n2 3\n")
        graph, summary = read_edge_list_with_summary(path)
        assert graph.num_edges == 2
        assert summary.lines_total == 7
        assert summary.comment_lines == 3
        assert summary.edges_added == 2
        assert summary.self_loops_skipped == 1
        assert summary.duplicates_skipped == 1
        assert summary.skipped == 2

    def test_clean_file_has_nothing_skipped(self, tmp_path, figure1):
        path = tmp_path / "g.txt"
        write_edge_list(figure1, path)
        graph, summary = read_edge_list_with_summary(path)
        assert graph == figure1
        assert summary.skipped == 0
        assert summary.edges_added == figure1.num_edges

    def test_describe_mentions_counts(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 1\n1 2\n")
        _, summary = read_edge_list_with_summary(path)
        text = summary.describe()
        assert "1 self-loops skipped" in text
        assert "1 edges kept" in text

    def test_read_edge_list_matches_summary_variant(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n2 1\n3 1\n")
        assert read_edge_list(path) == read_edge_list_with_summary(path)[0]


class TestJSON:
    def test_round_trip_with_isolates(self, tmp_path):
        g = Graph(edges=[(1, 2)], nodes=[5])
        path = tmp_path / "g.json"
        write_json(g, path)
        loaded = read_json(path)
        assert loaded == g
        assert loaded.has_node(5)

    def test_round_trip_figure1(self, tmp_path, figure1):
        path = tmp_path / "g.json"
        write_json(figure1, path)
        assert read_json(path) == figure1

    def test_malformed_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a graph"}')
        with pytest.raises(GraphError):
            read_json(path)

    def test_malformed_edge_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nodes": [1, 2], "edges": [[1, 2, 3]]}')
        with pytest.raises(GraphError):
            read_json(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_payload_weight_rejected(self, token):
        payload = json.loads(
            '{"nodes": [1, 2, 3], "edges": [[1, 2], [2, 3]], "weights": [0.5, %s]}' % token
        )
        with pytest.raises(GraphError, match="finite"):
            graph_from_payload(payload)
