"""The graph memo (content digest, CSR snapshot) never serves stale state.

:func:`graph_digest` is memoised per :attr:`Graph.version`.  Every test
memoises the digest, changes the graph through one mutation path, and
checks the digest against the unmemoised hash body and the CSR snapshot
against a fresh build.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.dynamic import DriftMonitor, IncrementalShedder
from repro.graph.csr import CSRAdjacency
from repro.graph.graph import Graph
from repro.service import store
from repro.service.store import graph_digest


def _ring(n=12):
    g = Graph(nodes=range(n))
    for node in range(n):
        g.add_edge(node, (node + 1) % n)
    g.add_edge(0, n // 2)
    return g


def _assert_current(graph):
    assert graph_digest(graph) == store._hash_graph(graph)
    snapshot, fresh = graph.csr(), CSRAdjacency.from_graph(graph)
    assert snapshot.labels == fresh.labels
    np.testing.assert_array_equal(snapshot.indptr, fresh.indptr)
    np.testing.assert_array_equal(snapshot.indices, fresh.indices)


def _memoise(graph):
    digest = graph_digest(graph)
    graph.csr()
    assert graph_digest(graph) is digest  # served from the memo
    return digest


@pytest.mark.parametrize(
    "mutate",
    [
        lambda g: g.add_node(99),
        lambda g: g.add_edge(3, 9),
        lambda g: g.remove_edge(0, 1),
        lambda g: g.discard_edge(0, 1),
        lambda g: g.remove_node(5),
        lambda g: g.set_edge_weight(0, 1, 0.5),
    ],
    ids=["add_node", "add_edge", "remove_edge", "discard_edge", "remove_node",
         "set_edge_weight"],
)
def test_every_mutator_rekeys(mutate):
    g = _ring()
    before = _memoise(g)
    mutate(g)
    assert graph_digest(g) != before
    _assert_current(g)


def test_graph_mutated_while_hashing_never_serves_that_digest():
    g = _ring()

    def hash_then_mutate(graph):
        value = store._hash_graph(graph)
        graph.add_node("late")
        return value

    g.memoised("digest", hash_then_mutate)
    _assert_current(g)


@pytest.mark.parametrize("rebuild_every_op", [False, True])
def test_batch_apply_rekeys(rebuild_every_op):
    g = _ring(30)
    drift = DriftMonitor(0.5, drift_ratio=1e-9) if rebuild_every_op else None
    shedder = IncrementalShedder(g, 0.5, drift=drift, seed=0)
    assert shedder.graph is g
    before = _memoise(g)
    ops = [("insert", 3, 17), ("insert", "new", 4), ("delete", 0, 1), ("insert", 8, 21)]
    shedder.apply_ops(ops)
    if rebuild_every_op:
        # Rebuilds memoise the CSR at versions inside the batch.
        assert shedder.stats["rebuilds"] > 0
    assert graph_digest(g) != before
    _assert_current(g)
    _assert_current(shedder.reduced)


def test_csr_materialised_graph():
    g = _ring(20)
    csr = g.csr()
    edge_u, edge_v = csr.edge_list_ids()
    keep = np.arange(edge_u.shape[0]) % 2 == 0
    sub = csr.subgraph_from_edge_ids(edge_u[keep], edge_v[keep])
    # The version the public mutators would reach writing the same content.
    assert sub.version == sub.num_nodes + sub.num_edges
    built = g.edge_subgraph(list(sub.edges()))
    assert graph_digest(sub) == graph_digest(built)
    before = _memoise(sub)
    assert sub.add_edge(1, 11)
    assert graph_digest(sub) != before
    _assert_current(sub)


@pytest.mark.parametrize("copy_first", [False, True])
def test_copy_and_original_mutated_differently(copy_first):
    g = _ring()
    _memoise(g)
    clone = g.copy()
    assert clone.cached_csr() is g.cached_csr()  # immutable values are shared
    # Same number of mutations: both sides reach the same version number.
    g.add_edge(2, 7)
    clone.add_edge(3, 8)
    assert g.version == clone.version
    first, second = (clone, g) if copy_first else (g, clone)
    _memoise(first)
    _assert_current(second)
    _assert_current(first)
    assert graph_digest(g) != graph_digest(clone)


def test_concurrent_readers_of_a_changing_graph():
    """Threads racing digest and CSR builds after each mutation agree."""
    g = _ring(200)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for step in range(20):
                assert g.add_edge(step, step + 50)
                futures = [
                    pool.submit(graph_digest if i % 2 else Graph.csr, g)
                    for i in range(16)
                ]
                values = [future.result(timeout=30) for future in futures]
                assert set(values[1::2]) == {store._hash_graph(g)}
                assert all(snapshot.num_edges == g.num_edges for snapshot in values[::2])
                _assert_current(g)
    finally:
        sys.setswitchinterval(interval)
