"""Task 5 — hop-plot.

Artifact: fraction of all vertex pairs reachable within k hops, for each k
(the paper's Figure 10).  Cumulative by construction; compared with the
curve similarity since the series is not a probability distribution.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.graph.graph import Graph
from repro.graph.hopplot import _check_max_hops, hop_plot
from repro.rng import RandomState
from repro.tasks.base import GraphTask, TaskArtifact
from repro.tasks.metrics import curve_similarity

__all__ = ["HopPlotTask"]


class HopPlotTask(GraphTask):
    """Hop-plot series; ``num_sources`` enables sampled BFS."""

    name = "Hop-plot"

    def __init__(
        self,
        max_hops: Optional[int] = None,
        num_sources: Optional[int] = None,
        normalize: str = "reachable",
        seed: RandomState = None,
    ) -> None:
        _check_max_hops(max_hops)
        self.max_hops = max_hops
        self.num_sources = num_sources
        self.normalize = normalize
        self._seed = seed

    def _compute(self, graph: Graph, scale: float) -> Dict[int, float]:
        return hop_plot(
            graph,
            max_hops=self.max_hops,
            num_sources=self.num_sources,
            normalize=self.normalize,
            seed=self._seed,
        )

    def utility(self, original: TaskArtifact, reduced: TaskArtifact) -> float:
        return curve_similarity(original.value, reduced.value)
