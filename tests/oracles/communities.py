"""Per-node asynchronous label propagation (oracle for the CSR sweep)."""

from __future__ import annotations

from collections import Counter
from typing import Dict

from repro.graph.graph import Graph, Node
from repro.rng import RandomState, ensure_rng

__all__ = ["_label_propagation_legacy"]


def _label_propagation_legacy(
    graph: Graph, max_iterations: int = 100, seed: RandomState = None
) -> Dict[Node, int]:
    """The original per-node Python sweep (the CSR sweep's oracle)."""
    rng = ensure_rng(seed)
    labels: Dict[Node, int] = {node: i for i, node in enumerate(graph.nodes())}
    nodes = list(graph.nodes())
    for _ in range(max_iterations):
        rng.shuffle(nodes)
        changed = 0
        for node in nodes:
            neighbor_labels = Counter(labels[neighbor] for neighbor in graph.neighbors(node))
            if not neighbor_labels:
                continue
            best_count = max(neighbor_labels.values())
            best = [label for label, count in neighbor_labels.items() if count == best_count]
            choice = best[int(rng.integers(len(best)))] if len(best) > 1 else best[0]
            if labels[node] != choice:
                labels[node] = choice
                changed += 1
        if changed == 0:
            break
    # Dense re-numbering in node insertion order.
    remap: Dict[int, int] = {}
    renumbered: Dict[Node, int] = {}
    for node in graph.nodes():
        label = labels[node]
        if label not in remap:
            remap[label] = len(remap)
        renumbered[node] = remap[label]
    return renumbered
