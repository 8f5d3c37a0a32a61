"""Uncertain graphs: edge probabilities and the expected-degree objective.

An *uncertain graph* attaches an existence probability ``w(e) ∈ [0, 1]``
to every edge; a node's natural size there is its **expected degree**
``E[deg(u)] = Σ w(e)``, and the paper's discrepancy ``Δ`` becomes
``Σ|E[deg_G'(u)] − p·E[deg_G(u)]|``.  A deterministic graph is the case
where every probability is 1, so there is no separate weighted shedder:
:class:`~repro.core.crr.CRRShedder` and
:class:`~repro.core.bm2.BM2Shedder` optimise the expected-degree objective
exactly when their input carries weights (``graph.csr().is_weighted``),
and an all-ones weight field reproduces the unweighted reduction bit for
bit.  This package holds the rest:

* :func:`expected_degree_distance` — the weighted quality metric (``Δ_E``),
  collapsing to the paper's ``Δ`` on unweighted graphs.
* seeded uncertain-graph generators for evaluation
  (:func:`uncertain_erdos_renyi`, :func:`uncertain_powerlaw_cluster`,
  :func:`attach_random_weights`).

Weighted inputs come from ``read_edge_list(path, weight_col=2)``
(:mod:`repro.graph.io`), the generators here, or ``Graph.add_edge(u, v,
weight=...)`` directly.  For the weight-blind baseline, reduce the
topology alone (``Graph(nodes=g.nodes(), edges=g.edges())``), lift the
kept edges back with ``g.edge_subgraph(...)`` and score them with
:func:`expected_degree_distance`.
"""

from repro.uncertain.generators import (
    attach_random_weights,
    uncertain_erdos_renyi,
    uncertain_powerlaw_cluster,
)
from repro.uncertain.metrics import (
    expected_degree_array,
    expected_degree_distance,
    total_edge_mass,
)

__all__ = [
    "expected_degree_array",
    "expected_degree_distance",
    "total_edge_mass",
    "attach_random_weights",
    "uncertain_erdos_renyi",
    "uncertain_powerlaw_cluster",
]
