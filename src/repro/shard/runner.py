"""Sharded shedding: per-shard CRR/BM2 on CSR views + boundary reconciliation.

:class:`ShardedShedder` runs the paper's array engines shard-by-shard and
stitches the results back into one reduction:

1. **Partition** (:func:`repro.shard.partition.partition_graph`): nodes
   split into ``num_shards`` groups; edges classified interior/boundary.
2. **Shed** each shard's interior edges with the id-native kernel cores
   (:func:`repro.core.crr.crr_reduce_ids` /
   :func:`repro.core.bm2.bm2_reduce_ids`) over its
   :class:`~repro.graph.csr.CSRView` — optionally fanned out across
   processes via the flat-CSR worker shipping in
   :mod:`repro.graph.parallel`.  Worker results are deterministic given
   the seed, so ``num_workers`` never changes the output.
3. **Reconcile** boundary edges against a merged whole-graph tracker:
   admit every boundary edge that strictly lowers ``Δ``; CRR runs — whose
   whole-graph engine pins exactly ``[p·m]`` kept edges — then demote /
   fill to land on that global target, while BM2 runs — whose edge count
   is emergent from matching + repair — stop after the improving
   admissions (the sharded analog of BM2's repair phase).

**Δ accounting.**  With per-shard discrepancies ``Δ_s`` (scored against
shard-interior degrees) and boundary set ``B``, the merged tracker obeys
``Δ_merged ≤ Σ_s Δ_s + 2p|B|``: a node's global discrepancy is its shard
discrepancy minus ``p`` times its incident boundary edges, and the
``p·b(u)`` terms sum to ``2p|B|``.  Reconciliation admissions in the
improving phase only lower ``Δ``, and every demote/fill changes ``Δ`` by
at most ``+2`` (one endpoint's ``|dis|`` moves by at most 1 each).  Hence
the documented, property-tested bound::

    Δ_final ≤ Σ_s Δ_s + 2·p·|B| + 2·(boundary_filled + demoted)

**Exactness.**  With ``num_shards=1`` there is no boundary, the single
view's arrays are bit-identical to the whole-graph snapshot's, and every
reconciliation phase is a no-op — the reduced graph equals the
whole-graph ``CRRShedder``/``BM2Shedder`` result exactly.  Each
shard seeds a fresh generator from the same ``seed``, so results are
independent of worker scheduling and ``num_workers``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.base import EdgeShedder, timed_phase
from repro.core.bm2 import bm2_reduce_ids
from repro.core.crr import crr_reduce_ids
from repro.core.discrepancy import ArrayDegreeTracker, round_half_up
from repro.core.sparsify import edcs_beta, prune_boundary_ids
from repro.graph.csr import CSRAdjacency
from repro.graph.graph import Graph
from repro.graph.parallel import _init_shard_worker, _pool_context, shard_worker_snapshot
from repro.rng import ensure_rng
from repro.shard.partition import PARTITION_METHODS, ShardPlan, partition_graph

__all__ = ["SHARD_METHODS", "ShardedShedder", "reconcile_ids"]

#: Kernels the sharded runner can drive.
SHARD_METHODS = ("crr", "bm2")

#: Improvement threshold for boundary admissions (same float-noise filter
#: as the CRR rewiring loop).
_MIN_IMPROVEMENT = 1e-9


def _shed_shard_view(view: CSRAdjacency, spec: Dict[str, Any]) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
    """Run the spec'd kernel over one shard view; returns local kept ids."""
    stats: Dict[str, Any] = {}
    started = time.perf_counter()
    if spec["method"] == "crr":
        rng = ensure_rng(spec["seed"])
        kept_u, kept_v = crr_reduce_ids(
            view,
            spec["p"],
            rng,
            stats,
            steps=spec["steps"],
            steps_factor=spec["steps_factor"],
            importance=spec["importance"],
            num_sources=spec["num_sources"],
        )
    else:
        kept_u, kept_v = bm2_reduce_ids(
            view,
            spec["p"],
            stats,
            rounding=spec["rounding"],
            accept_zero_gain=spec["accept_zero_gain"],
            seed=spec["seed"],
            sparsify=spec.get("sparsify", "off"),
            sparsify_beta=spec.get("sparsify_beta"),
        )
    stats["seconds"] = time.perf_counter() - started
    return kept_u, kept_v, stats


def _shard_job(
    payload: Tuple[int, np.ndarray, Dict[str, Any]]
) -> Tuple[int, np.ndarray, np.ndarray, Dict[str, Any]]:
    """Process-pool task: rebuild the shard view from the initializer-shipped
    parent arrays and shed it.  Local ids only — the parent lifts them."""
    index, node_ids, spec = payload
    view = shard_worker_snapshot().view_of(node_ids)
    kept_u, kept_v, stats = _shed_shard_view(view, spec)
    return index, kept_u, kept_v, stats


def _admission_rounds(
    tracker: ArrayDegreeTracker,
    boundary_u: np.ndarray,
    boundary_v: np.ndarray,
    remaining: np.ndarray,
    improving_only: bool,
    limit: Optional[int],
) -> Tuple[List[int], List[int]]:
    """Greedy boundary admission in batch rounds.

    Each round evaluates every remaining boundary edge's ``Δ``-change in
    one vectorized call, walks candidates best-first, and defers edges
    sharing an endpoint with a this-round admission (their gain is stale
    after it).  ``improving_only`` restricts admissions to strict
    improvements; otherwise admission continues least-harm-first until
    ``limit`` edges were taken.  Gains are monotone non-decreasing in the
    endpoints' discrepancies, so once no strict improvement remains none
    can reappear — the improving loop terminates.
    """
    added_u: List[int] = []
    added_v: List[int] = []
    while remaining.any():
        if limit is not None and len(added_u) >= limit:
            break
        positions = np.nonzero(remaining)[0]
        batch_u = boundary_u[positions]
        batch_v = boundary_v[positions]
        gains = tracker.add_change_ids(batch_u, batch_v)
        if improving_only:
            candidates = np.nonzero(gains < -_MIN_IMPROVEMENT)[0]
            if candidates.shape[0] == 0:
                break
            order = candidates[np.argsort(gains[candidates], kind="stable")]
        else:
            order = np.argsort(gains, kind="stable")
        touched = np.zeros(tracker.num_nodes, dtype=bool)
        round_u: List[int] = []
        round_v: List[int] = []
        for k in order.tolist():
            if limit is not None and len(added_u) + len(round_u) >= limit:
                break
            u = int(batch_u[k])
            v = int(batch_v[k])
            if touched[u] or touched[v]:
                continue
            remaining[positions[k]] = False
            touched[u] = True
            touched[v] = True
            round_u.append(u)
            round_v.append(v)
        if not round_u:
            break
        # Round admissions touch disjoint endpoints, so the bulk admit
        # takes the vectorized path with the scalar loop's exact Δ order.
        tracker.admit_edges_ids(
            np.asarray(round_u, dtype=np.int64), np.asarray(round_v, dtype=np.int64)
        )
        added_u.extend(round_u)
        added_v.extend(round_v)
    return added_u, added_v


def _unkept_edges(
    csr: CSRAdjacency, kept_u: np.ndarray, kept_v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every edge of ``csr`` not among ``(kept_u, kept_v)``, in edge-scan order."""
    n = csr.num_nodes
    edge_u, edge_v = csr.edge_list_ids()
    edge_keys = np.minimum(edge_u, edge_v) * n + np.maximum(edge_u, edge_v)
    kept_keys = np.minimum(kept_u, kept_v) * n + np.maximum(kept_u, kept_v)
    unkept = ~np.isin(edge_keys, kept_keys)
    return edge_u[unkept], edge_v[unkept]


def reconcile_ids(
    csr: CSRAdjacency,
    p: float,
    kept_u: np.ndarray,
    kept_v: np.ndarray,
    boundary_u: np.ndarray,
    boundary_v: np.ndarray,
    stats: Dict[str, Any],
    target: Optional[int] = None,
    sparsify_beta: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-shard keeps and reconcile boundary edges globally.

    Builds a whole-graph :class:`ArrayDegreeTracker` over the union of the
    shard results, then (a) admits every boundary edge that strictly
    lowers the global ``Δ`` and — when ``target`` is given — (b) demotes
    worst-scoring kept edges while the count exceeds it and (c) fills
    with least-harm boundary edges while it falls short — then, once the
    boundary is exhausted, with least-harm shed interior edges.  Steps
    (b)/(c) are mutually exclusive and land the reduction on exactly
    ``target`` edges.

    ``target`` is the *method's* contract, not a universal one: CRR pins
    ``[p·m]`` exactly, so its sharded runs pass it; BM2's edge count is
    emergent (matched + repaired), so its sharded runs pass ``None`` and
    reconcile with the improving-admission phase alone — the sharded
    analog of its repair phase.  Stats gain ``boundary_admitted``,
    ``boundary_filled``, ``demoted``, ``reconcile_target`` and the final
    ``tracker_delta``.

    ``sparsify_beta`` opts the improving phase into EDCS-style candidate
    pruning (:func:`repro.core.sparsify.prune_boundary_ids`): each
    boundary edge must rank inside its endpoints' top-``β`` most-improving
    candidates.  Admissions over the pruned subset still only lower
    ``Δ``, so the documented ``Σ_s Δ_s + 2p|B| + 2(filled+demoted)``
    bound is untouched.  Intended for ``target=None`` (BM2) runs — with a
    ``target``, pruning would also shrink the fill pool.
    """
    tracker = ArrayDegreeTracker.from_csr(csr, p)
    tracker.add_edges_ids(kept_u, kept_v)
    stats["boundary_candidates_pruned"] = 0
    if sparsify_beta is not None and boundary_u.shape[0]:
        scores = tracker.add_change_ids(boundary_u, boundary_v)
        remaining = prune_boundary_ids(boundary_u, boundary_v, scores, sparsify_beta)
        stats["boundary_candidates_pruned"] = int(
            boundary_u.shape[0] - np.count_nonzero(remaining)
        )
    else:
        remaining = np.ones(boundary_u.shape[0], dtype=bool)

    admitted_u, admitted_v = _admission_rounds(
        tracker, boundary_u, boundary_v, remaining, improving_only=True, limit=None
    )
    current_u = np.concatenate((kept_u, np.asarray(admitted_u, dtype=np.int64)))
    current_v = np.concatenate((kept_v, np.asarray(admitted_v, dtype=np.int64)))

    demoted = 0
    while target is not None and tracker.num_edges > target:
        costs = tracker.remove_change_ids(current_u, current_v)
        order = np.argsort(costs, kind="stable")
        drop = np.zeros(current_u.shape[0], dtype=bool)
        touched = np.zeros(tracker.num_nodes, dtype=bool)
        removed_this_round = False
        for k in order.tolist():
            if tracker.num_edges <= target:
                break
            u = int(current_u[k])
            v = int(current_v[k])
            if touched[u] or touched[v]:
                continue
            tracker.remove_edge_ids(u, v)
            drop[k] = True
            touched[u] = True
            touched[v] = True
            demoted += 1
            removed_this_round = True
        if not removed_this_round:
            break
        keep = ~drop
        current_u = current_u[keep]
        current_v = current_v[keep]

    filled_u: List[int] = []
    filled_v: List[int] = []
    if target is not None and tracker.num_edges < target:
        filled_u, filled_v = _admission_rounds(
            tracker,
            boundary_u,
            boundary_v,
            remaining,
            improving_only=False,
            limit=target - tracker.num_edges,
        )
        current_u = np.concatenate((current_u, np.asarray(filled_u, dtype=np.int64)))
        current_v = np.concatenate((current_v, np.asarray(filled_v, dtype=np.int64)))
    if target is not None and tracker.num_edges < target:
        # The boundary pool ran dry: per-shard rounding can sum below the
        # global [p·m] (e.g. two shards of 2 edges at p=0.7 keep 1+1, the
        # whole graph wants [0.7·5]=4), so fill from the shed interior edges.
        pool_u, pool_v = _unkept_edges(csr, current_u, current_v)
        more_u, more_v = _admission_rounds(
            tracker,
            pool_u,
            pool_v,
            np.ones(pool_u.shape[0], dtype=bool),
            improving_only=False,
            limit=target - tracker.num_edges,
        )
        filled_u.extend(more_u)
        filled_v.extend(more_v)
        current_u = np.concatenate((current_u, np.asarray(more_u, dtype=np.int64)))
        current_v = np.concatenate((current_v, np.asarray(more_v, dtype=np.int64)))

    stats["reconcile_target"] = target
    stats["boundary_admitted"] = len(admitted_u)
    stats["boundary_filled"] = len(filled_u)
    stats["demoted"] = demoted
    stats["tracker_delta"] = tracker.delta
    return current_u, current_v


class ShardedShedder(EdgeShedder):
    """Partition → per-shard CRR/BM2 → boundary reconciliation.

    Args:
        method: which array kernel runs per shard — ``"crr"`` or ``"bm2"``.
        num_shards: node groups to partition into (clamped to the node
            count).  ``1`` reproduces the whole-graph array engine bit for
            bit.
        num_workers: process fan-out for the per-shard runs.  ``1`` stays
            in-process; results are identical either way.
        partition: ``"community"`` (default) or ``"contiguous"`` — see
            :func:`repro.shard.partition.partition_graph`.
        seed: integer seed (or ``None``).  Every shard derives a fresh
            generator from it, so the reduction is independent of shard
            scheduling; generators are not accepted because they cannot be
            replayed per shard (or shipped to workers).
        steps / steps_factor / importance / num_betweenness_sources:
            forwarded to the CRR core (ignored for BM2).
        rounding / accept_zero_gain: forwarded to the BM2 core (ignored
            for CRR).
        sparsify / sparsify_beta: forwarded to the BM2 core
            (``bm2`` only); ``sparsify="edcs"`` additionally prunes the
            boundary-reconciliation candidates with the same ``β``
            (:func:`repro.core.sparsify.prune_boundary_ids`), keeping the
            delta bound intact.
    """

    name = "ShardedShedder"

    def __init__(
        self,
        method: str = "crr",
        num_shards: int = 4,
        num_workers: int = 1,
        partition: str = "community",
        seed: Optional[int] = None,
        steps: Optional[int] = None,
        steps_factor: float = 10.0,
        importance: str = "betweenness",
        num_betweenness_sources: Optional[int] = None,
        rounding: str = "half_up",
        accept_zero_gain: bool = False,
        sparsify: str = "off",
        sparsify_beta: Optional[int] = None,
    ) -> None:
        if method not in SHARD_METHODS:
            raise ValueError(f"method must be one of {SHARD_METHODS}, got {method!r}")
        if num_shards < 1:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if num_workers < 1:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        if partition not in PARTITION_METHODS:
            raise ValueError(
                f"partition must be one of {PARTITION_METHODS}, got {partition!r}"
            )
        if seed is not None and not isinstance(seed, (int, np.integer)):
            raise ValueError(
                "ShardedShedder requires an int (or None) seed: each shard"
                " replays it independently"
            )
        if importance not in ("betweenness", "random"):
            raise ValueError(
                f"importance must be 'betweenness' or 'random', got {importance!r}"
            )
        if sparsify not in ("off", "edcs"):
            raise ValueError(f"sparsify must be 'off' or 'edcs', got {sparsify!r}")
        if sparsify != "off" and method != "bm2":
            raise ValueError("sparsify requires method='bm2'")
        if sparsify_beta is not None and sparsify_beta < 1:
            raise ValueError(f"sparsify_beta must be positive, got {sparsify_beta}")
        self.method = method
        self.num_shards = num_shards
        self.num_workers = num_workers
        self.partition = partition
        self.steps = steps
        self.steps_factor = steps_factor
        self.importance = importance
        self.num_betweenness_sources = num_betweenness_sources
        self.rounding = rounding
        self.accept_zero_gain = accept_zero_gain
        self.sparsify = sparsify
        self.sparsify_beta = sparsify_beta
        self._seed = None if seed is None else int(seed)
        self.name = f"Sharded{method.upper()}"

    def _spec(self, p: float) -> Dict[str, Any]:
        return {
            "method": self.method,
            "p": p,
            "seed": self._seed,
            "steps": self.steps,
            "steps_factor": self.steps_factor,
            "importance": self.importance,
            "num_sources": self.num_betweenness_sources,
            "rounding": self.rounding,
            "accept_zero_gain": self.accept_zero_gain,
            "sparsify": self.sparsify,
            "sparsify_beta": self.sparsify_beta,
        }

    def _run_shards(
        self, plan: ShardPlan, spec: Dict[str, Any]
    ) -> List[Tuple[np.ndarray, np.ndarray, Dict[str, Any]]]:
        """Shed every shard; serial or process fan-out, identical results."""
        workers = min(self.num_workers, plan.num_shards)
        if workers <= 1:
            return [
                _shed_shard_view(shard.view, spec) for shard in plan.shards
            ]
        csr = plan.csr
        edge_u, edge_v = csr.edge_list_ids()
        payloads = [(shard.index, shard.node_ids, spec) for shard in plan.shards]
        context = _pool_context()
        with context.Pool(
            processes=workers,
            initializer=_init_shard_worker,
            initargs=(csr.indptr, csr.indices, edge_u, edge_v),
        ) as pool:
            results = pool.map(_shard_job, payloads)
        ordered: List[Optional[Tuple[np.ndarray, np.ndarray, Dict[str, Any]]]] = [
            None
        ] * plan.num_shards
        for index, kept_u, kept_v, stats in results:
            ordered[index] = (kept_u, kept_v, stats)
        return ordered  # type: ignore[return-value]

    def _reduce(self, graph: Graph, p: float) -> Tuple[Graph, Dict[str, Any]]:
        stats: Dict[str, Any] = {
            "method": self.method,
            "num_shards": self.num_shards,
            "num_workers": self.num_workers,
        }
        with timed_phase(stats, "partition_seconds"):
            plan = partition_graph(
                graph, self.num_shards, method=self.partition, seed=self._seed
            )
        stats["partition"] = plan.describe()

        spec = self._spec(p)
        with timed_phase(stats, "shard_seconds"):
            shard_results = self._run_shards(plan, spec)

        per_shard: List[Dict[str, Any]] = []
        global_u: List[np.ndarray] = []
        global_v: List[np.ndarray] = []
        shard_deltas: List[float] = []
        for shard, (local_u, local_v, shard_stats) in zip(plan.shards, shard_results):
            global_u.append(shard.node_ids[local_u])
            global_v.append(shard.node_ids[local_v])
            shard_deltas.append(float(shard_stats.get("tracker_delta", 0.0)))
            per_shard.append(
                {
                    "shard": shard.index,
                    "nodes": shard.num_nodes,
                    "interior_edges": shard.interior_edges,
                    "kept_edges": int(local_u.shape[0]),
                    "delta": shard_deltas[-1],
                    "seconds": shard_stats["seconds"],
                }
            )
        kept_u = np.concatenate(global_u) if global_u else np.empty(0, dtype=np.int64)
        kept_v = np.concatenate(global_v) if global_v else np.empty(0, dtype=np.int64)

        # CRR pins the whole-graph edge count [p·m]; BM2's count is
        # emergent (matched + repaired), so its reconciliation must not
        # force one — see reconcile_ids.
        target = round_half_up(p * plan.csr.num_edges) if self.method == "crr" else None
        boundary_beta: Optional[int] = None
        if self.method == "bm2" and self.sparsify == "edcs":
            boundary_beta = (
                int(self.sparsify_beta) if self.sparsify_beta is not None else edcs_beta()
            )
        with timed_phase(stats, "reconcile_seconds"):
            kept_u, kept_v = reconcile_ids(
                plan.csr,
                p,
                kept_u,
                kept_v,
                plan.boundary_u,
                plan.boundary_v,
                stats,
                target=target,
                sparsify_beta=boundary_beta,
            )

        stats["per_shard"] = per_shard
        stats["shard_deltas"] = shard_deltas
        stats["boundary_edges"] = plan.num_boundary
        # The documented reconciliation bound (see module docstring):
        # Δ ≤ Σ_s Δ_s + 2p|B| + 2·(fills + demotions).
        stats["delta_bound"] = (
            sum(shard_deltas)
            + 2.0 * p * plan.num_boundary
            + 2.0 * (stats["boundary_filled"] + stats["demoted"])
        )
        reduced = plan.csr.subgraph_from_edge_ids(kept_u, kept_v)
        return reduced, stats
