"""The dict-based BM2 phases and the lazy max-heap Algorithm 3 (oracles).

* :func:`bipartite_repair` is the paper's lazy max-heap; the gain-bucketed
  :func:`repro.core.bm2.bipartite_repair_ids` replays its selections,
  selection order and tracker ``Δ`` bit for bit.
* :func:`heap_repair_ids` runs that heap over CSR-id candidate arrays;
  :func:`bm2_reduce_ids_heap` and :class:`HeapBM2Shedder` are the full
  id-space BM2 pipeline with the heap in place of the bucket engine (the
  exact-repair baseline of the Phase-2 scale benchmark).
* :class:`LegacyBM2Shedder` is :class:`BM2Shedder` on the original dict
  scan, the dict tracker and the heap; it keeps the identical edge set.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Tuple
from unittest import mock

import numpy as np

from repro.core import bm2 as bm2_module
from repro.core.base import timed_phase
from repro.core.bm2 import BM2Shedder, _snap
from repro.core.discrepancy import ArrayDegreeTracker, round_half_up
from repro.errors import ReductionError
from repro.graph.csr import CSRAdjacency
from repro.graph.graph import Edge, Graph, Node
from repro.rng import ensure_rng

from tests.oracles.matching import greedy_b_matching
from tests.oracles.tracker import DegreeTracker, ids_view

__all__ = [
    "HeapBM2Shedder",
    "LegacyBM2Shedder",
    "bipartite_repair",
    "bm2_reduce_ids_heap",
    "heap_repair_ids",
]

#: Scalar capacity rounding rules; elementwise identical to the vectorized
#: ``repro.core.bm2._ROUNDING_RULES``.
_SCALAR_ROUNDING_RULES = {
    "half_up": round_half_up,
    "half_even": lambda x: int(round(x)),
    "floor": lambda x: int(x),
    "ceil": lambda x: -int(-x // 1),
}


def bipartite_repair(
    tracker: DegreeTracker,
    candidate_edges: List[Tuple[Node, Node]],
    accept_zero_gain: bool = False,
) -> List[Edge]:
    """Algorithm 3: greedy weighted semi-matching between groups A and B.

    ``candidate_edges`` must be oriented ``(a, b)`` with ``a`` in group A and
    ``b`` in group B under ``tracker``'s current state.  The tracker is
    mutated: every selected edge is added to it.  Returns the selected edges.
    Only ``tracker.dis`` and ``tracker.add_edge`` are used, so any tracker
    flavour works — including :func:`~tests.oracles.tracker.ids_view`, in
    which case the candidate "nodes" are CSR integer ids.

    Implementation: a lazy max-heap.  Each entry carries the weight it was
    pushed with; stale entries (whose edge was re-weighted or retired) are
    skipped on pop.  Gains only ever decrease as A-deficits shrink, so lazy
    deletion is safe.
    """
    weight: Dict[Tuple[Node, Node], float] = {}
    edges_by_a: Dict[Node, List[Node]] = {}
    alive_b: set = set()

    for a, b in candidate_edges:
        gain = _snap(
            abs(tracker.dis(a))
            + 2 * abs(tracker.dis(b))
            - abs(tracker.dis(a) + 1)
            - 1
        )
        if gain < 0:
            continue
        key = (a, b)
        if key in weight:
            raise ReductionError(f"duplicate candidate edge {key!r}")
        weight[key] = gain
        edges_by_a.setdefault(a, []).append(b)
        alive_b.add(b)

    heap: List[Tuple[float, int, Node, Node]] = []
    counter = 0
    for (a, b), w in weight.items():
        heap.append((-w, counter, a, b))
        counter += 1
    heapq.heapify(heap)

    selected: List[Edge] = []
    while heap:
        negative_w, _, a, b = heapq.heappop(heap)
        w = -negative_w
        key = (a, b)
        current = weight.get(key)
        if current is None or b not in alive_b or current != w:
            continue  # stale or retired entry
        if w == 0 and not accept_zero_gain:
            del weight[key]
            continue

        selected.append(key)
        del weight[key]
        tracker.add_edge(a, b)
        # b's discrepancy is now >= 0: it left group B (line 6).
        alive_b.discard(b)

        dis_a = _snap(tracker.dis(a))
        if dis_a <= -1:
            # Lemma 2 zone: gains of a's remaining edges are unchanged.
            continue
        if dis_a > -0.5:
            # a left group A (lines 15-17): retire all its edges.
            for x in edges_by_a.get(a, ()):
                weight.pop((a, x), None)
            continue
        # -1 < dis(a) <= -0.5: re-weight a's surviving edges (lines 8-14).
        for x in edges_by_a.get(a, ()):
            edge = (a, x)
            if edge not in weight or x not in alive_b:
                continue
            new_w = _snap(abs(dis_a) + 2 * abs(tracker.dis(x)) - abs(1 + dis_a) - 1)
            if new_w > 0 or (new_w == 0 and accept_zero_gain):
                weight[edge] = new_w
                heapq.heappush(heap, (-new_w, counter, a, x))
                counter += 1
            else:
                del weight[edge]
    return selected


def heap_repair_ids(
    tracker: ArrayDegreeTracker,
    cand_a: np.ndarray,
    cand_b: np.ndarray,
    accept_zero_gain: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`bipartite_repair` over CSR-id candidate arrays.

    Same contract as :func:`repro.core.bm2.bipartite_repair_ids`: returns
    the selected ``(a_ids, b_ids)`` in selection order and mutates the
    tracker exactly as the bucket engine does.
    """
    candidates = list(zip(np.asarray(cand_a).tolist(), np.asarray(cand_b).tolist()))
    repaired = bipartite_repair(
        ids_view(tracker), candidates, accept_zero_gain=accept_zero_gain
    )
    count = len(repaired)
    sel_a = np.fromiter((a for a, _ in repaired), np.int64, count=count)
    sel_b = np.fromiter((b for _, b in repaired), np.int64, count=count)
    return sel_a, sel_b


def bm2_reduce_ids_heap(
    csr: CSRAdjacency, p: float, stats: Dict[str, Any], **options: Any
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`repro.core.bm2.bm2_reduce_ids` with the heap as Algorithm 3.

    The identical pipeline — capacities, Phase 1, grouping, candidate
    orientation, optional EDCS pruning, timers — with only the repair
    engine swapped, so Phase-2 timings compare the two engines alone.
    """
    with _heap_repair():
        kept_u, kept_v = bm2_module.bm2_reduce_ids(csr, p, stats, **options)
    stats["repair_engine"] = "heap"
    return kept_u, kept_v


def _heap_repair():
    """Route the BM2 pipeline's Algorithm 3 call to :func:`heap_repair_ids`."""
    return mock.patch.object(bm2_module, "bipartite_repair_ids", heap_repair_ids)


class HeapBM2Shedder(BM2Shedder):
    """:class:`BM2Shedder` with the lazy heap as Algorithm 3."""

    def _reduce(self, graph: Graph, p: float) -> Tuple[Graph, Dict[str, Any]]:
        with _heap_repair():
            reduced, stats = super()._reduce(graph, p)
        stats["repair_engine"] = "heap"
        return reduced, stats


class LegacyBM2Shedder(BM2Shedder):
    """:class:`BM2Shedder` on the original dict scan and lazy heap."""

    def _reduce(self, graph: Graph, p: float) -> Tuple[Graph, Dict[str, Any]]:
        """The original dict-based phases (the array phases' oracle)."""
        round_rule = _SCALAR_ROUNDING_RULES[self.rounding]
        capacities = {node: round_rule(p * graph.degree(node)) for node in graph.nodes()}

        stats: Dict[str, Any] = {"capacity_rounding": self.rounding, "engine": "legacy"}
        with timed_phase(stats, "phase1_seconds"):
            shuffle_seed = ensure_rng(self._seed) if self.shuffle_edges else None
            matched = greedy_b_matching(graph, capacities, shuffle_seed=shuffle_seed)

        with timed_phase(stats, "phase2_seconds"):
            tracker = DegreeTracker(graph, p)
            for u, v in matched:
                tracker.add_edge(u, v)

            group_a = {node for node in graph.nodes() if _snap(tracker.dis(node)) <= -0.5}
            group_b = {
                node for node in graph.nodes() if -0.5 < _snap(tracker.dis(node)) < 0
            }

            # Phase 1 scans graph.edges(), so every matched edge is already a
            # canonical tuple — plain tuple lookups beat building a frozenset
            # per graph edge.
            matched_keys = set(matched)
            candidates: List[Tuple[Node, Node]] = []
            for u, v in graph.edges():
                if (u, v) in matched_keys:
                    continue
                if u in group_a and v in group_b:
                    candidates.append((u, v))
                elif v in group_a and u in group_b:
                    candidates.append((v, u))

            repaired = bipartite_repair(
                tracker, candidates, accept_zero_gain=self.accept_zero_gain
            )

        reduced = graph.edge_subgraph(list(matched) + [tuple(e) for e in repaired])
        stats.update(
            {
                "matched_edges": len(matched),
                "repair_edges": len(repaired),
                "group_a_size": len(group_a),
                "group_b_size": len(group_b),
                "candidate_edges": len(candidates),
                "tracker_delta": tracker.delta,
                "repair_engine": "heap",
                "sparsify": "off",
                "sparsify_beta": 0,
                "phase2_candidate_edges_pruned": 0,
            }
        )
        return reduced, stats
