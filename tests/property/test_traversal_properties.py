"""Property tests: the bit-parallel distance sweep equals the per-source loop.

The oracle (``tests/oracles/traversal.py``) runs one BFS per source and
tallies level sizes.  On arbitrary small graphs — isolated nodes and
several components included — and on any source list (duplicates, and
the 1/63/64/65/130 counts that straddle word boundaries) the kernel must
give *equal* integers: ``distance_histogram``, ``source_level_counts``,
``bfs_level_sizes``, ``pairwise_distance_counts`` and
``closeness_centrality`` are compared with ``==``, never a tolerance.
The internal constants are patched to force multi-block runs, chunked
gathers, and each of the push / slot-by-slot pull / ``reduceat`` pull
paths on its own.
"""

import tracemalloc
from collections import Counter
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.graph import (
    Graph,
    barabasi_albert,
    bfs_level_sizes,
    closeness_centrality,
    distance_histogram,
    erdos_renyi,
    pairwise_distance_counts,
    select_source_ids,
    source_level_counts,
)
from repro.graph import kernels

from tests.oracles.traversal import (
    _legacy_bfs_level_sizes,
    _legacy_closeness_centrality,
    _legacy_distance_histogram,
)

# Small graphs over up to 31 labelled nodes plus a few isolated ones, so
# empty graphs, several components and degree-0 sources all occur.
edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda e: e[0] != e[1]),
    max_size=90,
)
isolated_counts = st.integers(0, 4)

#: Internal settings that steer each level down a different path:
#: (cell budget, pull ratio, slot cells).  A budget of 1 gives one word
#: per block, pulls every level and ORs each heavy row's tail as its own
#: chunk; a pull ratio of 0 always pushes and a huge one always pulls;
#: slot cells of 1 pull slot by slot and a huge value pulls every row's
#: whole list with ``reduceat``.
SETTINGS = {
    "default": (kernels._CELL_BUDGET, kernels._PULL_RATIO, kernels._SLOT_CELLS),
    "tiny-budget": (1, kernels._PULL_RATIO, kernels._SLOT_CELLS),
    "push-only": (kernels._CELL_BUDGET, 0, kernels._SLOT_CELLS),
    "pull-slots": (64, 10**9, 1),
    "pull-reduceat": (64, 10**9, 10**9),
}


def _patched(name):
    budget, pull_ratio, slot_cells = SETTINGS[name]
    return mock.patch.multiple(
        kernels, _CELL_BUDGET=budget, _PULL_RATIO=pull_ratio, _SLOT_CELLS=slot_cells
    )


def _graph(edges, isolated):
    graph = Graph(edges=edges)
    for extra in range(isolated):
        graph.add_node(("isolated", extra))
    return graph


def _oracle_rows(csr, sources):
    """Per-source level counts from the oracle, as ``int64[S, D + 1]``."""
    sizes = [_legacy_bfs_level_sizes(csr, int(source)) for source in sources]
    depth = max((len(row) for row in sizes), default=0)
    rows = np.zeros((len(sizes), depth + 1), dtype=np.int64)
    for i, row in enumerate(sizes):
        rows[i, 1 : len(row) + 1] = row
    return rows


def _assert_sweeps_match(csr, sources):
    expected_histogram = _legacy_distance_histogram(csr, sources)
    expected_rows = _oracle_rows(csr, sources)
    for name in SETTINGS:
        with _patched(name):
            histogram = distance_histogram(csr, sources)
            rows = source_level_counts(csr, sources)
        assert histogram.dtype == np.int64
        assert np.array_equal(histogram, expected_histogram), name
        assert np.array_equal(rows, expected_rows), name


@given(edge_lists, isolated_counts, st.data())
@settings(max_examples=80, deadline=None)
def test_sweeps_match_oracle_on_arbitrary_sources(edges, isolated, data):
    csr = _graph(edges, isolated).csr()
    n = csr.num_nodes
    sources = data.draw(
        st.lists(st.integers(0, n - 1), max_size=140) if n else st.just([])
    )
    _assert_sweeps_match(csr, sources)


@given(edge_lists, isolated_counts)
@settings(max_examples=60, deadline=None)
def test_all_sources_and_single_source_helpers_match_oracle(edges, isolated):
    graph = _graph(edges, isolated)
    csr = graph.csr()
    _assert_sweeps_match(csr, list(range(csr.num_nodes)))
    for source in range(csr.num_nodes):
        assert bfs_level_sizes(csr, source) == _legacy_bfs_level_sizes(csr, source)
    assert closeness_centrality(graph) == _legacy_closeness_centrality(graph)


@given(edge_lists, isolated_counts, st.integers(1, 12), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_sampled_wrappers_match_oracle(edges, isolated, num_sources, seed):
    graph = _graph(edges, isolated)
    csr = graph.csr()
    sources, _ = select_source_ids(csr.num_nodes, num_sources, seed)
    expected = _legacy_distance_histogram(csr, sources)
    assert pairwise_distance_counts(graph, num_sources, seed) == Counter(
        {distance: int(count) for distance, count in enumerate(expected) if count}
    )
    assert closeness_centrality(graph, num_sources, seed) == (
        _legacy_closeness_centrality(graph, num_sources, seed)
    )


def _components_graph():
    """An ER graph, a long path, a star and isolated nodes, side by side."""
    edges = list(erdos_renyi(80, 0.05, seed=3).edges())
    edges += [(("path", i), ("path", i + 1)) for i in range(60)]
    edges += [(("star", 0), ("star", i)) for i in range(1, 40)]
    return _graph(edges, 5)


STRUCTURED = {
    "components": _components_graph(),
    "barabasi-albert": barabasi_albert(150, 3, seed=5),
}


@pytest.mark.parametrize("graph", STRUCTURED.values(), ids=STRUCTURED.keys())
@pytest.mark.parametrize("num_sources", [1, 63, 64, 65, 130])
def test_word_boundary_source_counts_with_duplicates(graph, num_sources):
    csr = graph.csr()
    rng = np.random.default_rng(num_sources)
    with_replacement = rng.integers(0, csr.num_nodes, size=num_sources)
    _assert_sweeps_match(csr, with_replacement)
    _assert_sweeps_match(csr, [int(with_replacement[0])] * num_sources)


@pytest.mark.parametrize("graph", STRUCTURED.values(), ids=STRUCTURED.keys())
def test_closeness_equals_oracle_exactly(graph):
    assert closeness_centrality(graph) == _legacy_closeness_centrality(graph)
    for name in SETTINGS:
        with _patched(name):
            sampled = closeness_centrality(graph, num_sources=37, seed=9)
        assert sampled == _legacy_closeness_centrality(graph, num_sources=37, seed=9)


def test_peak_scratch_stays_under_the_budget():
    """The kernel's documented bound: under ``16 · (_CELL_BUDGET + n)``
    eight-byte cells of scratch, checked at a budget that forces 16 blocks
    of 128 sources."""
    csr = barabasi_albert(2000, 3, seed=1).csr()
    sources = np.random.default_rng(0).integers(0, csr.num_nodes, size=2000)
    budget = 4096
    with mock.patch.object(kernels, "_CELL_BUDGET", budget):
        assert budget // csr.num_nodes * 64 < sources.shape[0]  # several blocks
        expected = distance_histogram(csr, sources)  # warm every code path
        tracemalloc.start()
        try:
            histogram = distance_histogram(csr, sources)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert np.array_equal(histogram, expected)
    assert peak < 8 * 16 * (budget + csr.num_nodes)
