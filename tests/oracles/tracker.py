"""The dict-keyed degree-discrepancy tracker (oracle for ``ArrayDegreeTracker``)."""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.core.discrepancy import ArrayDegreeTracker
from repro.errors import EdgeNotFoundError, InvalidRatioError, ReductionError
from repro.graph.graph import Edge, Graph, Node

__all__ = ["DegreeTracker", "ids_view"]


class DegreeTracker:
    """Incremental ``dis(u)`` / ``Δ`` state for a growing/shrinking edge set.

    Construct from the original graph and ratio ``p``; the tracked edge set
    starts empty (every node sits at ``dis(u) = −p·deg_G(u)``).  Feed edges
    through :meth:`add_edge` / :meth:`remove_edge`, or evaluate hypothetical
    moves with the ``*_change`` methods without mutating state.
    """

    def __init__(self, graph: Graph, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise InvalidRatioError(p)
        self._graph = graph
        self._p = p
        #: node -> expected degree in the reduced graph (Equation 1)
        self._expected: Dict[Node, float] = {
            node: p * graph.degree(node) for node in graph.nodes()
        }
        #: node -> current degree in the tracked edge set
        self._current: Dict[Node, int] = dict.fromkeys(graph.nodes(), 0)
        self._edges: set[frozenset] = set()
        self._delta = sum(self._expected.values())

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def p(self) -> float:
        return self._p

    @property
    def delta(self) -> float:
        """Current ``Δ`` over the tracked edge set."""
        return self._delta

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def expected_degree(self, node: Node) -> float:
        """``E(deg_G'(node)) = p · deg_G(node)``."""
        return self._expected[node]

    def current_degree(self, node: Node) -> int:
        return self._current[node]

    def dis(self, node: Node) -> float:
        """``dis(node)`` for the tracked edge set (Equation 3)."""
        return self._current[node] - self._expected[node]

    def has_edge(self, u: Node, v: Node) -> bool:
        return frozenset((u, v)) in self._edges

    def edges(self) -> Iterable[Tuple[Node, Node]]:
        """The tracked edges (arbitrary orientation)."""
        return [tuple(edge) for edge in self._edges]

    def average_delta(self) -> float:
        """``Δ / |V|`` — the per-node discrepancy the paper plots (Fig. 4/5)."""
        n = len(self._expected)
        if n == 0:
            return 0.0
        return self._delta / n

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_edge(self, u: Node, v: Node) -> None:
        """Track edge ``(u, v)``; must exist in the original graph."""
        if not self._graph.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        key = frozenset((u, v))
        if key in self._edges:
            raise ReductionError(f"edge ({u!r}, {v!r}) is already tracked")
        self._delta += self.add_change(u, v)
        self._edges.add(key)
        self._current[u] += 1
        self._current[v] += 1

    def remove_edge(self, u: Node, v: Node) -> None:
        """Stop tracking edge ``(u, v)``."""
        key = frozenset((u, v))
        if key not in self._edges:
            raise EdgeNotFoundError(u, v)
        self._delta += self.remove_change(u, v)
        self._edges.discard(key)
        self._current[u] -= 1
        self._current[v] -= 1

    # ------------------------------------------------------------------
    # Hypothetical moves (no mutation)
    # ------------------------------------------------------------------

    def add_change(self, u: Node, v: Node) -> float:
        """Change in ``Δ`` if edge ``(u, v)`` were added.

        This is the paper's ``d_2 = |dis(x)+1| + |dis(y)+1| − (|dis(x)| + |dis(y)|)``.
        """
        du, dv = self.dis(u), self.dis(v)
        return abs(du + 1) + abs(dv + 1) - (abs(du) + abs(dv))

    def remove_change(self, u: Node, v: Node) -> float:
        """Change in ``Δ`` if edge ``(u, v)`` were removed.

        This is the paper's ``d_1 = |dis(u)−1| + |dis(v)−1| − (|dis(u)| + |dis(v)|)``.
        """
        du, dv = self.dis(u), self.dis(v)
        return abs(du - 1) + abs(dv - 1) - (abs(du) + abs(dv))

    def swap_change(self, edge_out: Edge, edge_in: Edge) -> float:
        """Exact change in ``Δ`` for removing ``edge_out`` and adding ``edge_in``.

        When the two edges share no endpoint this equals ``d_1 + d_2`` from
        Algorithm 1 lines 10-11.  When they share an endpoint the independent
        formulas double-count that node; this method computes the exact joint
        effect so CRR's accepted swaps can never increase ``Δ``.
        """
        (u, v), (x, y) = edge_out, edge_in
        touched = {u, v, x, y}
        shift: Dict[Node, int] = dict.fromkeys(touched, 0)
        shift[u] -= 1
        shift[v] -= 1
        shift[x] += 1
        shift[y] += 1
        change = 0.0
        for node in touched:
            before = self.dis(node)
            change += abs(before + shift[node]) - abs(before)
        return change

    def apply_swap(self, edge_out: Edge, edge_in: Edge) -> None:
        """Remove ``edge_out`` and add ``edge_in`` in one move."""
        self.remove_edge(*edge_out)
        self.add_edge(*edge_in)


class _TrackerIdsView:
    """Duck-typed tracker facade whose node handles are CSR integer ids.

    :func:`tests.oracles.bm2.bipartite_repair` only calls ``dis`` and
    ``add_edge``; this view lets an :class:`ArrayDegreeTracker` feed it id
    tuples without a label round-trip.  ``dis`` values are bitwise identical to the dict
    tracker's (same ``int - float`` IEEE subtraction), so the repair heap
    makes bitwise-identical decisions.
    """

    __slots__ = ("_tracker",)

    def __init__(self, tracker: "ArrayDegreeTracker") -> None:
        self._tracker = tracker

    def dis(self, node_id: int) -> float:
        return float(self._tracker._dis[node_id])

    def add_edge(self, u: int, v: int) -> None:
        self._tracker.add_edge_ids(u, v)


def ids_view(tracker: ArrayDegreeTracker) -> _TrackerIdsView:
    """A facade over ``tracker`` keyed by CSR ids (for :func:`bipartite_repair`)."""
    return _TrackerIdsView(tracker)
