"""Unit tests for the traversal kernels' source handling and level counts.

Every kernel that takes source ids validates them where they enter: a
negative id, an id past the last node, and a non-integer id are each
refused with a :class:`GraphError` naming the id, instead of failing deep
inside a gather or silently running from a different node.
"""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    Graph,
    bfs_distance_array,
    bfs_level_sizes,
    brandes_accumulate,
    distance_histogram,
    source_level_counts,
)

#: Each kernel called with one bad source id.
KERNELS = {
    "distance_histogram": lambda csr, source: distance_histogram(csr, [source]),
    "source_level_counts": lambda csr, source: source_level_counts(csr, [source]),
    "brandes_accumulate": lambda csr, source: brandes_accumulate(
        csr, [source], node_scores=np.zeros(csr.num_nodes)
    ),
    "bfs_level_sizes": bfs_level_sizes,
    "bfs_distance_array": bfs_distance_array,
}


@pytest.fixture
def path4_csr():
    return Graph(edges=[(0, 1), (1, 2), (2, 3)]).csr()


class TestSourceValidation:
    @pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
    def test_negative_source_rejected(self, path4_csr, kernel):
        with pytest.raises(GraphError, match="source id -1"):
            kernel(path4_csr, -1)

    @pytest.mark.parametrize("source", [4, 7])
    @pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
    def test_source_past_last_node_rejected(self, path4_csr, kernel, source):
        with pytest.raises(GraphError, match=f"source id {source} "):
            kernel(path4_csr, source)

    @pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
    def test_non_integer_source_rejected(self, path4_csr, kernel):
        with pytest.raises(GraphError, match="source id 1.5"):
            kernel(path4_csr, 1.5)

    def test_out_of_range_id_in_an_int_array_is_named(self, path4_csr):
        with pytest.raises(GraphError, match="source id 4"):
            distance_histogram(path4_csr, np.array([0, 3, 4], dtype=np.int64))

    def test_bool_source_rejected(self, path4_csr):
        with pytest.raises(GraphError, match="source id True"):
            distance_histogram(path4_csr, [True])

    def test_numpy_integer_sources_accepted(self, path4_csr):
        assert distance_histogram(path4_csr, [np.int32(0)]).tolist() == [0, 1, 1, 1]
        assert bfs_level_sizes(path4_csr, np.int64(1)) == [2, 1]


class TestLevelCounts:
    def test_rows_per_source_with_duplicates(self, path4_csr):
        counts = source_level_counts(path4_csr, [0, 1, 0])
        assert counts.tolist() == [[0, 1, 1, 1], [0, 2, 1, 0], [0, 1, 1, 1]]
        assert distance_histogram(path4_csr, [0, 1, 0]).tolist() == [0, 4, 3, 2]

    def test_isolated_source_has_an_all_zero_row(self):
        csr = Graph(nodes=[9], edges=[(0, 1)]).csr()
        assert source_level_counts(csr, [0]).tolist() == [[0]]
        assert bfs_level_sizes(csr, 0) == []
        assert distance_histogram(csr, [0]).tolist() == [0]

    def test_no_sources(self, path4_csr):
        assert source_level_counts(path4_csr, []).shape == (0, 1)
        assert distance_histogram(path4_csr, []).tolist() == [0]
