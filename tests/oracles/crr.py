"""The scalar CRR rewiring loop (oracle for the array swap loop).

:class:`LegacyCRRShedder` keeps :class:`CRRShedder`'s Phase 1 and replaces
Phase 2 with the original per-step loop over the dict
:class:`~tests.oracles.tracker.DegreeTracker` and two
:class:`IndexedEdgePool` pools.  Both consume the RNG identically and
accept the exact same swap sequence, so the reduced graphs are identical.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.core.crr import _MIN_IMPROVEMENT, CRRShedder, IndexedEdgePool
from repro.graph.graph import Edge, Graph

from tests.oracles.tracker import DegreeTracker

__all__ = ["LegacyCRRShedder"]


class LegacyCRRShedder(CRRShedder):
    """:class:`CRRShedder` with the scalar rewiring loop."""

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
