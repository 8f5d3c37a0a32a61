"""Hop-plot computation (evaluation task 5).

The hop-plot maps each hop count ``k`` to the fraction of *all* vertex pairs
that are reachable within ``k`` hops.  It is the cumulative companion of the
shortest-path distance distribution and is what the paper's Figure 10 shows.

Exact computation is a BFS from every node (run bit-parallel, 64 sources
per machine word, by :func:`repro.graph.kernels.distance_histogram`); for
larger graphs the sampled variant estimates the same curve from a uniform
subset of sources.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.graph.graph import Graph
from repro.graph.shortest_paths import pairwise_distance_counts
from repro.rng import RandomState

__all__ = ["hop_plot", "reachable_pair_fraction"]


def hop_plot(
    graph: Graph,
    max_hops: Optional[int] = None,
    num_sources: Optional[int] = None,
    normalize: str = "reachable",
    seed: RandomState = None,
) -> Dict[int, float]:
    """Fraction of vertex pairs reachable within each hop count.

    The returned mapping is cumulative and non-decreasing in the hop count.
    ``normalize="reachable"`` (the paper's definition: "the percentage of
    all reachable vertex pairs ... under the restriction of a certain
    distance k") divides by the number of *reachable* pairs, so the curve
    always tops out at 1.0.  ``normalize="all"`` divides by all ``n(n-1)``
    ordered pairs instead, so disconnected graphs top out below 1.0.
    When sources are sampled, the denominator scales to the sampled pairs.
    ``max_hops`` truncates the curve and must be at least 1.
    """
    _check_max_hops(max_hops)
    if normalize not in ("reachable", "all"):
        raise ValueError(f"normalize must be 'reachable' or 'all', got {normalize!r}")
    n = graph.num_nodes
    if n < 2:
        return {}
    counts = pairwise_distance_counts(graph, num_sources=num_sources, seed=seed)
    if not counts:
        return {}
    if normalize == "reachable":
        total_pairs = sum(counts.values())
    else:
        sources = n if num_sources is None else min(num_sources, n)
        total_pairs = sources * (n - 1)
    horizon = max(counts)
    if max_hops is not None:
        horizon = min(horizon, max_hops)
    plot: Dict[int, float] = {}
    cumulative = 0
    for hops in range(1, horizon + 1):
        cumulative += counts.get(hops, 0)
        plot[hops] = cumulative / total_pairs
    return plot


def _check_max_hops(max_hops: Optional[int]) -> None:
    """Raise :class:`ValueError` unless ``max_hops`` is ``None`` or >= 1."""
    if max_hops is not None and max_hops < 1:
        raise ValueError(f"max_hops must be at least 1, got {max_hops}")


def reachable_pair_fraction(
    graph: Graph,
    num_sources: Optional[int] = None,
    seed: RandomState = None,
) -> float:
    """Fraction of all vertex pairs that are connected at any distance."""
    plot = hop_plot(graph, num_sources=num_sources, normalize="all", seed=seed)
    if not plot:
        return 0.0
    return plot[max(plot)]
