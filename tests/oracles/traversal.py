"""Per-source BFS sweeps (oracle for the bit-parallel multi-source kernel).

The pre-MS-BFS bodies of :func:`repro.graph.kernels.bfs_level_sizes`,
:func:`repro.graph.kernels.distance_histogram` and
:func:`repro.graph.centrality_extra.closeness_centrality`: one
level-synchronous BFS per source, tallying level sizes.  Same source
sampling, so identical ``(num_sources, seed)`` arguments sweep identical
sources.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.graph.csr import CSRAdjacency
from repro.graph.graph import Graph, Node
from repro.graph.kernels import _expand, _next_frontier
from repro.graph.sampling import select_source_ids
from repro.rng import RandomState

__all__ = [
    "_legacy_bfs_level_sizes",
    "_legacy_closeness_centrality",
    "_legacy_distance_histogram",
]


def _legacy_bfs_level_sizes(csr: CSRAdjacency, source: int) -> List[int]:
    """Number of nodes at each hop distance ``1, 2, ...`` from ``source``."""
    dist = np.full(csr.num_nodes, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    sizes: List[int] = []
    while frontier.size:
        _, targets, _ = _expand(csr.indptr, csr.indices, frontier)
        fresh = targets[dist[targets] < 0]
        if fresh.size == 0:
            break
        dist[fresh] = len(sizes) + 1
        frontier = _next_frontier(dist, fresh, len(sizes) + 1)
        sizes.append(int(frontier.size))
    return sizes


def _legacy_distance_histogram(csr: CSRAdjacency, sources: Iterable[int]) -> np.ndarray:
    """Counts of (source, node) pairs per hop distance, one BFS per source."""
    counts: List[int] = [0]
    for source in sources:
        sizes = _legacy_bfs_level_sizes(csr, int(source))
        if len(sizes) >= len(counts):
            counts.extend([0] * (len(sizes) - len(counts) + 1))
        for depth, size in enumerate(sizes, start=1):
            counts[depth] += size
    return np.asarray(counts, dtype=np.int64)


def _legacy_closeness_centrality(
    graph: Graph,
    num_sources: Optional[int] = None,
    seed: RandomState = None,
) -> Dict[Node, float]:
    """Wasserman-Faust closeness from one level-size BFS per source."""
    csr = graph.csr()
    n = graph.num_nodes
    source_ids, _ = select_source_ids(n, num_sources, seed)
    centrality: Dict[Node, float] = {}
    for source in source_ids.tolist():
        sizes = _legacy_bfs_level_sizes(csr, source)
        reachable = 1 + sum(sizes)
        total = sum(depth * size for depth, size in enumerate(sizes, start=1))
        if total == 0 or n <= 1:
            centrality[csr.labels[source]] = 0.0
            continue
        centrality[csr.labels[source]] = ((reachable - 1) / (n - 1)) * (
            (reachable - 1) / total
        )
    return centrality
