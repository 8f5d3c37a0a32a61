"""Additional centrality measures: closeness and eigenvector.

Not used by the paper's algorithms, but standard companions to
betweenness in network analysis and useful for custom CRR importance
functions (see :class:`repro.core.CRRShedder`'s ``importance`` argument).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph, Node
from repro.graph.kernels import source_level_counts
from repro.graph.sampling import select_source_ids
from repro.rng import RandomState

__all__ = ["closeness_centrality", "eigenvector_centrality"]


def closeness_centrality(
    graph: Graph,
    num_sources: Optional[int] = None,
    seed: RandomState = None,
) -> Dict[Node, float]:
    """Closeness with the Wasserman-Faust component correction.

    ``C(u) = ((r-1)/(n-1)) · ((r-1)/Σ d(u,v))`` where ``r`` is the size of
    ``u``'s reachable set — the convention networkx uses, so disconnected
    graphs are handled gracefully.  ``num_sources`` restricts computation
    to a sampled subset of nodes (the rest are omitted from the result).

    Each source's reachable count and distance sum come from one
    bit-parallel sweep over all sources
    (:func:`repro.graph.kernels.source_level_counts`) — no per-node
    distance dict is built.
    """
    csr = graph.csr()
    n = graph.num_nodes
    source_ids, _ = select_source_ids(n, num_sources, seed)
    counts = source_level_counts(csr, source_ids)
    reached = counts.sum(axis=1).tolist()
    totals = (counts @ np.arange(counts.shape[1], dtype=np.int64)).tolist()
    centrality: Dict[Node, float] = {}
    for source, others, total in zip(source_ids.tolist(), reached, totals):
        if total == 0 or n <= 1:
            centrality[csr.labels[source]] = 0.0
            continue
        centrality[csr.labels[source]] = (others / (n - 1)) * (others / total)
    return centrality


def eigenvector_centrality(
    graph: Graph,
    max_iterations: int = 1000,
    tolerance: float = 1e-10,
) -> Dict[Node, float]:
    """Principal-eigenvector centrality via power iteration.

    Scores are normalised to unit Euclidean norm (networkx convention).
    Raises :class:`GraphError` if the iteration fails to converge — which
    happens on bipartite-ish graphs where the spectral gap vanishes.
    """
    n = graph.num_nodes
    if n == 0:
        return {}
    if graph.num_edges == 0:
        # A = 0: the only fixed point is the zero vector.
        return {node: 0.0 for node in graph.nodes()}
    csr = graph.csr()
    vector = np.full(n, 1.0 / np.sqrt(n), dtype=np.float64)
    lengths = np.diff(csr.indptr)
    row_of_entry = np.repeat(np.arange(n), lengths)
    for _ in range(max_iterations):
        # Shifted iteration y = (A + I) x — same eigenvectors, but spectral
        # shift keeps bipartite graphs (whose extreme eigenvalues are ±λ)
        # from oscillating.  Row accumulation via bincount over CSR entries.
        new_vector = vector + np.bincount(
            row_of_entry, weights=vector[csr.indices], minlength=n
        )
        norm = np.linalg.norm(new_vector)
        if norm == 0:
            # no edges at all: centrality undefined, return uniform zeros
            return {label: 0.0 for label in csr.labels}
        new_vector /= norm
        if np.abs(new_vector - vector).sum() < n * tolerance:
            return {label: float(new_vector[i]) for i, label in enumerate(csr.labels)}
        vector = new_vector
    raise GraphError("eigenvector centrality power iteration did not converge")
