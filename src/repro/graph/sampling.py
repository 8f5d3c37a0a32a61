"""Seeded source sampling shared by every per-source traversal sweep.

Betweenness centrality, the shortest-path distribution, hop-plots, and
closeness centrality all support a "resource-constrained" mode that runs
their per-source accumulation from ``k`` uniformly sampled sources instead
of all ``n``.  Historically each module carried its own copy of the
sampling logic; this module is the single canonical implementation, so a
given ``(num_sources, seed)`` pair selects the *same* sources everywhere.

The contract (pinned by ``tests/graph/test_sampling.py``):

* ``num_sources=None`` or ``num_sources >= n`` selects every node, in
  insertion order, without consuming the seed;
* otherwise ``ensure_rng(seed).choice(n, size=num_sources, replace=False)``
  picks positional indices into the insertion-order node list — positions
  which are exactly the integer ids of a :class:`CSRAdjacency` snapshot;
* ``num_sources <= 0``, a non-integer or a ``bool`` raises
  :class:`ValueError` before any draw, so a rejected call consumes no seed;
* the returned scale factor ``n / num_sources`` turns sampled betweenness
  sums into the unbiased estimator of the exact value.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.graph.graph import Graph, Node
from repro.rng import RandomState, ensure_rng

__all__ = ["select_source_ids", "select_sources"]


def select_source_ids(
    num_nodes: int,
    num_sources: Optional[int],
    seed: RandomState = None,
) -> Tuple[np.ndarray, float]:
    """Pick source *ids* (positions ``0..num_nodes-1``) and a scale factor.

    Returns ``(ids, scale)`` where ``ids`` is an ``int64`` array and
    ``scale = num_nodes / num_sources`` (1.0 when running exhaustively).
    Ids index both the insertion-order node list of a :class:`Graph` and
    the rows of its :class:`CSRAdjacency` snapshot, which are the same
    ordering by construction.
    """
    if num_sources is not None and (
        isinstance(num_sources, (bool, np.bool_))
        or not isinstance(num_sources, (int, np.integer))
    ):
        raise ValueError(f"num_sources must be an integer or None, got {num_sources!r}")
    if num_sources is None or num_sources >= num_nodes:
        return np.arange(num_nodes, dtype=np.int64), 1.0
    if num_sources <= 0:
        raise ValueError(f"num_sources must be positive, got {num_sources}")
    rng = ensure_rng(seed)
    picks = rng.choice(num_nodes, size=num_sources, replace=False)
    return picks.astype(np.int64, copy=False), num_nodes / num_sources


def select_sources(
    graph: Graph,
    num_sources: Optional[int],
    seed: RandomState = None,
) -> Tuple[List[Node], float]:
    """Pick source *labels* from ``graph`` and the matching scale factor.

    Label-level twin of :func:`select_source_ids`: identical ``(num_sources,
    seed)`` arguments select the same positions, so code working on labels
    and code working on CSR ids sweep the same sources.
    """
    nodes = list(graph.nodes())
    ids, scale = select_source_ids(len(nodes), num_sources, seed)
    return [nodes[i] for i in ids], scale
