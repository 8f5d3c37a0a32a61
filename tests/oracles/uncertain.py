"""The weight-blind baseline for the uncertain-graph objective.

CRR and BM2 optimise expected degrees whenever their input carries edge
probabilities, so the baseline they are measured against reduces the
topology alone: strip the weights, reduce, lift the kept edges back onto
the weighted graph and score them with
:func:`repro.uncertain.expected_degree_distance`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.base import EdgeShedder
from repro.graph.graph import Graph
from repro.uncertain import expected_degree_distance

__all__ = ["strip_weights", "weight_blind_reduce"]


def strip_weights(graph: Graph) -> Graph:
    """The same nodes and edges, in the same order, with no weights."""
    return Graph(nodes=graph.nodes(), edges=graph.edges())


def weight_blind_reduce(
    shedder: EdgeShedder, graph: Graph, p: float, topology: Optional[Graph] = None
) -> Tuple[Graph, float]:
    """Reduce ``graph`` ignoring its weights; return the lifted result and its Δ_E.

    ``topology`` is ``strip_weights(graph)`` when the caller already built
    it (so repeated runs reuse one stripped graph and its CSR snapshot).
    """
    if topology is None:
        topology = strip_weights(graph)
    blind = shedder.reduce(topology, p)
    reduced = graph.edge_subgraph(blind.reduced.edges())
    return reduced, expected_degree_distance(graph, reduced, p)
