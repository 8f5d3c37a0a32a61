"""Graph serialisation: SNAP-style edge lists and JSON.

The paper's datasets ship as whitespace-separated edge lists with ``#``
comment headers (the SNAP convention); we read and write that format so a
user who *does* have the original files can drop them straight in.  JSON
round-trips preserve isolated nodes, which edge lists cannot express.

Real SNAP files contain a few self-loop lines and often list each edge in
both directions; both are silently collapsed into the simple-graph model,
but :func:`read_edge_list_with_summary` additionally *counts* what was
skipped so callers (``repro-shed stats``) can surface it instead of
dropping the information on the floor.

Edge lists may carry a third column of edge weights (existence
probabilities in the uncertain-graph workload).  ``weight_col`` selects
it; finite probabilities are clamped into ``[0, 1]`` and the summary
counts how many rows were out of range, so noisy files degrade loudly, not
silently.  A ``nan`` or ``inf`` token is rejected with its ``path:line``.

:func:`graph_to_payload` / :func:`graph_from_payload` expose the JSON
wire shape ``{"nodes": [...], "edges": [[u, v], ...]}`` directly, so the
artifact store (:mod:`repro.service`) can embed a graph inside a larger
document without double-encoding.  Weighted graphs add a parallel
``"weights"`` list aligned with ``"edges"``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.errors import GraphError
from repro.graph.graph import Graph

__all__ = [
    "EdgeListSummary",
    "graph_from_payload",
    "graph_to_payload",
    "read_edge_list",
    "read_edge_list_with_summary",
    "read_json",
    "write_edge_list",
    "write_json",
]

PathLike = Union[str, Path]


@dataclass(frozen=True)
class EdgeListSummary:
    """What :func:`read_edge_list_with_summary` saw while parsing.

    Attributes:
        lines_total: every line in the file, including comments/blanks.
        comment_lines: ``#``/``%`` comment and blank lines.
        edges_added: distinct undirected edges in the resulting graph.
        self_loops_skipped: ``u u`` lines dropped (the model is simple).
        duplicates_skipped: lines repeating an already-seen edge (SNAP
            files frequently list both orientations).
        weights_clamped: weight tokens outside ``[0, 1]`` clamped into
            range (probability mode; 0 unless a weight column was read).
    """

    lines_total: int
    comment_lines: int
    edges_added: int
    self_loops_skipped: int
    duplicates_skipped: int
    weights_clamped: int = 0

    @property
    def skipped(self) -> int:
        """Total data lines that did not produce a new edge."""
        return self.self_loops_skipped + self.duplicates_skipped

    def describe(self) -> str:
        """One human-readable line, e.g. for ``repro-shed stats``."""
        text = (
            f"parsed {self.lines_total} lines ({self.comment_lines} comments): "
            f"{self.edges_added} edges kept, "
            f"{self.self_loops_skipped} self-loops skipped, "
            f"{self.duplicates_skipped} duplicate lines collapsed"
        )
        if self.weights_clamped:
            text += f", {self.weights_clamped} weights clamped into [0, 1]"
        return text


def read_edge_list(path: PathLike, weight_col: Optional[int] = None) -> Graph:
    """Read a SNAP-style edge list (``# comments``, one edge per line).

    Node tokens that look like integers become ``int`` nodes; anything else
    stays a string.  Files that list each edge in both directions (SNAP
    ships several such files) are handled transparently — duplicate edges
    collapse.  Self-loop lines are skipped; SNAP data contains a few and
    the paper's model is a simple graph.  Use
    :func:`read_edge_list_with_summary` to also learn *how many* lines
    were collapsed or skipped.

    ``weight_col`` (0-based; the conventional third column is 2) reads an
    edge weight/probability per line, clamped into ``[0, 1]``, producing a
    weighted graph.
    """
    graph, _ = read_edge_list_with_summary(path, weight_col=weight_col)
    return graph


def read_edge_list_with_summary(
    path: PathLike, weight_col: Optional[int] = None
) -> Tuple[Graph, EdgeListSummary]:
    """Like :func:`read_edge_list`, plus an :class:`EdgeListSummary`."""
    if weight_col is not None and weight_col < 2:
        raise GraphError(
            f"weight_col must be >= 2 (columns 0-1 are the endpoints), got {weight_col}"
        )
    graph = Graph()
    lines_total = comment_lines = self_loops = duplicates = clamped = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            lines_total += 1
            line = raw_line.strip()
            if not line or line.startswith(("#", "%")):
                comment_lines += 1
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphError(f"{path}:{line_number}: expected two node tokens, got {line!r}")
            u, v = _parse_node(parts[0]), _parse_node(parts[1])
            weight = None
            if weight_col is not None:
                if len(parts) <= weight_col:
                    raise GraphError(
                        f"{path}:{line_number}: no weight column {weight_col} in {line!r}"
                    )
                try:
                    weight = float(parts[weight_col])
                except ValueError:
                    raise GraphError(
                        f"{path}:{line_number}: bad weight token {parts[weight_col]!r}"
                    ) from None
                if not math.isfinite(weight):
                    raise GraphError(
                        f"{path}:{line_number}: non-finite weight token"
                        f" {parts[weight_col]!r}"
                    )
                if weight < 0.0 or weight > 1.0:
                    clamped += 1
                    weight = min(1.0, max(0.0, weight))
            if u == v:
                self_loops += 1
                continue
            if not graph.add_edge(u, v, weight=weight):
                duplicates += 1
    summary = EdgeListSummary(
        lines_total=lines_total,
        comment_lines=comment_lines,
        edges_added=graph.num_edges,
        self_loops_skipped=self_loops,
        duplicates_skipped=duplicates,
        weights_clamped=clamped,
    )
    return graph, summary


def _parse_node(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def write_edge_list(graph: Graph, path: PathLike, header: str = "") -> None:
    """Write the canonical edge list, optionally with a ``#`` header line.

    Weighted graphs gain a third weight column (``%.17g``, round-trip
    exact), which :func:`read_edge_list` reads back with ``weight_col=2``.
    """
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write(f"# {header}\n")
        handle.write(f"# nodes: {graph.num_nodes} edges: {graph.num_edges}\n")
        if graph.is_weighted:
            for u, v, w in graph.edge_weights():
                handle.write(f"{u}\t{v}\t{w:.17g}\n")
        else:
            for u, v in graph.edges():
                handle.write(f"{u}\t{v}\n")


def graph_to_payload(graph: Graph) -> dict:
    """The JSON wire shape ``{"nodes": [...], "edges": [[u, v], ...]}``.

    Nodes appear in insertion order and edges in canonical iteration
    order, so :func:`graph_from_payload` reconstructs a graph with the
    *same* deterministic iteration order — loading an artifact yields
    bit-identical downstream computations.  A weighted graph adds a
    ``"weights"`` list aligned with ``"edges"``.
    """
    payload = {
        "nodes": list(graph.nodes()),
        "edges": [[u, v] for u, v in graph.edges()],
    }
    if graph.is_weighted:
        payload["weights"] = [w for _, _, w in graph.edge_weights()]
    return payload


def graph_from_payload(payload: dict, where: str = "payload") -> Graph:
    """Rebuild a graph from :func:`graph_to_payload` output."""
    if not isinstance(payload, dict) or "nodes" not in payload or "edges" not in payload:
        raise GraphError(f"{where}: not a repro graph payload")
    graph = Graph(nodes=payload["nodes"])
    weights = payload.get("weights")
    if weights is not None and len(weights) != len(payload["edges"]):
        raise GraphError(f"{where}: weights list does not match edges")
    for position, edge in enumerate(payload["edges"]):
        if len(edge) != 2:
            raise GraphError(f"{where}: malformed edge entry {edge!r}")
        graph.add_edge(
            edge[0], edge[1],
            weight=None if weights is None else float(weights[position]),
        )
    return graph


def write_json(graph: Graph, path: PathLike) -> None:
    """Write ``{"nodes": [...], "edges": [[u, v], ...]}`` — keeps isolates."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(graph_to_payload(graph), handle)


def read_json(path: PathLike) -> Graph:
    """Read a graph written by :func:`write_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return graph_from_payload(payload, where=str(path))
