"""The label-space CRR pipeline with the scalar rewiring loop (oracle).

:class:`LegacyCRRShedder` runs Algorithm 1 the way it was first written:
Phase 1 ranks labelled edges (:func:`top_edges_by_betweenness`, a
``rng.choice`` over ``graph.edges()``, or a custom callable's scores),
and Phase 2 is the per-step loop over the dict
:class:`~tests.oracles.tracker.DegreeTracker` and two
:class:`IndexedEdgePool` pools.  It consumes the RNG exactly as the
id-space :class:`repro.core.crr.CRRShedder` does and accepts the same
swap sequence, so the reduced graphs are identical (unweighted inputs).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.base import timed_phase
from repro.core.crr import _MIN_IMPROVEMENT, CRRShedder, IndexedEdgePool
from repro.core.discrepancy import round_half_up
from repro.graph.centrality import top_edges_by_betweenness
from repro.graph.graph import Edge, Graph
from repro.rng import ensure_rng

from tests.oracles.tracker import DegreeTracker

__all__ = ["LegacyCRRShedder"]


class LegacyCRRShedder(CRRShedder):
    """:class:`CRRShedder` in label space with the scalar rewiring loop."""

    def _reduce(self, graph: Graph, p: float) -> Tuple[Graph, Dict[str, Any]]:
        rng = ensure_rng(self._seed)
        target = round_half_up(p * graph.num_edges)
        steps = self.steps
        if steps is None:
            steps = round_half_up(self.steps_factor * p * graph.num_edges)

        stats: Dict[str, Any] = {
            "target_edges": target,
            "steps": steps,
            "initial_ranking": (
                self.importance if isinstance(self.importance, str) else "custom"
            ),
        }
        with timed_phase(stats, "ranking_seconds"):
            kept_edges = self._initial_edges(graph, target, rng)
        with timed_phase(stats, "rewiring_seconds"):
            reduced = self._rewire(graph, p, kept_edges, steps, rng, stats)
        return reduced, stats

    def _initial_edges(
        self, graph: Graph, target: int, rng: np.random.Generator
    ) -> List[Edge]:
        """Phase 1: the [P]-edge initial selection over labelled edges."""
        target = min(target, graph.num_edges)
        if self.importance == "random":
            edges = list(graph.edges())
            picks = rng.choice(len(edges), size=target, replace=False)
            return [edges[i] for i in picks]
        if self.importance == "betweenness":
            return top_edges_by_betweenness(
                graph,
                target,
                num_sources=self.num_betweenness_sources,
                seed=rng,
                tie_seed=rng,
            )
        # Custom importance: rank by the caller's scores, random ties.
        scores = dict(self.importance(graph))
        missing = [edge for edge in graph.edges() if edge not in scores]
        if missing:
            raise ValueError(
                f"importance callable left {len(missing)} edges unscored"
                f" (e.g. {missing[0]!r}); score every canonical edge"
            )
        edges = list(scores)
        rng.shuffle(edges)
        edges.sort(key=lambda edge: scores[edge], reverse=True)
        return edges[:target]

    def _rewire(
        self,
        graph: Graph,
        p: float,
        kept_edges: List[Edge],
        steps: int,
        rng: np.random.Generator,
        stats: Dict[str, Any],
    ) -> Graph:
        """The original scalar rewiring loop (the array loop's oracle)."""
        tracker = DegreeTracker(graph, p)
        for u, v in kept_edges:
            tracker.add_edge(u, v)

        kept = IndexedEdgePool(kept_edges)
        kept_set = set(kept_edges)
        shed = IndexedEdgePool(e for e in graph.edges() if e not in kept_set)

        accepted = 0
        attempted = 0
        if len(kept) and len(shed):
            for _ in range(steps):
                edge_out = kept.sample(rng)
                edge_in = shed.sample(rng)
                attempted += 1
                if tracker.swap_change(edge_out, edge_in) < -_MIN_IMPROVEMENT:
                    tracker.apply_swap(edge_out, edge_in)
                    kept.remove(edge_out)
                    shed.add(edge_out)
                    shed.remove(edge_in)
                    kept.add(edge_in)
                    accepted += 1

        stats["attempted_swaps"] = attempted
        stats["accepted_swaps"] = accepted
        stats["tracker_delta"] = tracker.delta
        return graph.edge_subgraph(kept.items())
