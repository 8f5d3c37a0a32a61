"""Label-keyed greedy b-matching and two alternative exact id-space schedules.

:func:`greedy_b_matching` is the dict scan that
:func:`repro.graph.matching.greedy_b_matching_ids` replays bit for bit.
:func:`fixpoint_b_matching_ids` and :func:`blocked_b_matching_ids` are the
speculative vectorized schedules of the same scan; both were measured
never faster than the sequential id scan, and both must agree with it
exactly on every input.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Edge, Graph, Node
from repro.rng import RandomState, ensure_rng

__all__ = ["blocked_b_matching_ids", "fixpoint_b_matching_ids", "greedy_b_matching"]


def greedy_b_matching(
    graph: Graph,
    capacities: Mapping[Node, int],
    edge_order: Optional[Iterable[Edge]] = None,
    shuffle_seed: RandomState = None,
) -> List[Edge]:
    """Maximal b-matching by a single greedy scan over the edges.

    ``edge_order`` overrides the scan order (ablation hook: input order vs
    random vs degree-sorted); ``shuffle_seed`` randomises it instead.  The
    default is the graph's canonical edge order, matching the paper's
    "for each (u,v) in E" loop.

    Raises :class:`GraphError` on negative or missing capacities.
    """
    for node in graph.nodes():
        capacity = capacities.get(node)
        if capacity is None:
            raise GraphError(f"missing capacity for node {node!r}")
        if capacity < 0:
            raise GraphError(f"capacity for node {node!r} is negative: {capacity}")

    if edge_order is None:
        edges = list(graph.edges())
        if shuffle_seed is not None:
            ensure_rng(shuffle_seed).shuffle(edges)
    else:
        edges = list(edge_order)
        for u, v in edges:
            if not graph.has_edge(u, v):
                raise GraphError(f"edge order contains non-edge ({u!r}, {v!r})")

    load: Dict[Node, int] = dict.fromkeys(graph.nodes(), 0)
    matched: List[Edge] = []
    for u, v in edges:
        if load[u] < capacities[u] and load[v] < capacities[v]:
            matched.append((u, v))
            load[u] += 1
            load[v] += 1
    return matched


def fixpoint_b_matching_ids(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    capacities: np.ndarray,
    max_rounds: int,
) -> np.ndarray:
    """Greedy scan decided by speculative vectorized fixpoint rounds.

    A fixpoint round classifies each still-undecided edge by counting the
    *decided-kept* (``lo``) and *potentially-kept* (``hi`` = decided plus
    undecided) earlier edges at each endpoint: ``hi_u < cap_u and hi_v <
    cap_v`` means kept no matter how earlier undecided edges resolve, and
    ``lo_u >= cap_u or lo_v >= cap_v`` means dropped no matter what.  After
    the rounds (or earlier, once few edges remain undecided), an exact
    scalar pass seeded with the decided-kept counts finishes the job, so
    the result is identical to the plain scan for any ``max_rounds``.
    Measured never faster than the sequential scan; kept as an independent
    exact schedule the scan is cross-checked against.
    """
    m = int(edge_u.shape[0])
    n = int(capacities.shape[0])
    if m == 0:
        return np.zeros(0, dtype=bool)

    # Half-edge layout, grouped by node with positions ascending inside each
    # group; built once, reused every round for grouped prefix counts.  The
    # halves are interleaved (u₀ v₀ u₁ v₁ …) so that one stable argsort by
    # node already yields ascending positions within each group.
    node_h = np.empty(2 * m, dtype=np.int64)
    node_h[0::2] = edge_u
    node_h[1::2] = edge_v
    pos_h = np.repeat(np.arange(m, dtype=np.int64), 2)
    order = np.argsort(node_h, kind="stable")
    edge_of_sorted = pos_h[order]
    counts = np.bincount(node_h, minlength=n)
    # Position of each edge's u-half / v-half inside the sorted layout.
    inverse = np.empty(2 * m, dtype=np.int64)
    inverse[order] = np.arange(2 * m, dtype=np.int64)
    inv_u, inv_v = inverse[0::2], inverse[1::2]
    group_starts = np.cumsum(counts) - counts
    cap_u = capacities[edge_u]
    cap_v = capacities[edge_v]

    kept = np.zeros(m, dtype=bool)
    undecided = np.ones(m, dtype=bool)

    def _grouped_exclusive_prefix(flags: np.ndarray) -> np.ndarray:
        """Per half-edge: count of earlier same-node edges with flag set."""
        flagged = flags[edge_of_sorted].astype(np.int64)
        cumulative = np.cumsum(flagged)
        exclusive = cumulative - flagged
        base = np.concatenate(([0], cumulative))[group_starts]
        return exclusive - np.repeat(base, counts)

    # Below this many undecided edges, the scalar finish beats another round.
    threshold = max(512, m >> 2)
    for _ in range(max_rounds):
        lo = _grouped_exclusive_prefix(kept)
        pending = _grouped_exclusive_prefix(undecided)
        lo_u, lo_v = lo[inv_u], lo[inv_v]
        hi_u = lo_u + pending[inv_u]
        hi_v = lo_v + pending[inv_v]
        decide_keep = undecided & (hi_u < cap_u) & (hi_v < cap_v)
        decide_drop = undecided & ((lo_u >= cap_u) | (lo_v >= cap_v))
        kept |= decide_keep
        undecided &= ~(decide_keep | decide_drop)
        count = int(np.count_nonzero(undecided))
        if count == 0:
            return kept
        if count <= threshold:
            break

    # Exact scalar finish.  For an undecided edge, the load each endpoint
    # has accumulated before it = decided-kept earlier edges (``lo``, now
    # final) + undecided-kept earlier edges (tallied as we walk the
    # remaining positions in ascending order).
    remaining = np.nonzero(undecided)[0]
    lo = _grouped_exclusive_prefix(kept)
    rem_u = edge_u[remaining].tolist()
    rem_v = edge_v[remaining].tolist()
    rem_lo_u = lo[inv_u[remaining]].tolist()
    rem_lo_v = lo[inv_v[remaining]].tolist()
    rem_cap_u = cap_u[remaining].tolist()
    rem_cap_v = cap_v[remaining].tolist()
    extra = [0] * n
    newly_kept = []
    for k in range(len(rem_u)):
        u, v = rem_u[k], rem_v[k]
        if rem_lo_u[k] + extra[u] < rem_cap_u[k] and rem_lo_v[k] + extra[v] < rem_cap_v[k]:
            newly_kept.append(k)
            extra[u] += 1
            extra[v] += 1
    kept[remaining[newly_kept]] = True
    return kept


def blocked_b_matching_ids(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    capacities: np.ndarray,
    block_size: int,
) -> np.ndarray:
    """Greedy scan in edge blocks: whole-block admission when it fits.

    Exact for any ``block_size``: a block where every touched node has
    enough spare capacity for all its in-block edges admits wholesale in
    one vectorized step (the sequential scan would keep each edge — every
    intermediate load stays strictly below its capacity); otherwise edges
    with an already-saturated endpoint are dropped vectorized (loads only
    grow, and rejected edges change no loads) and the residue replays the
    exact sequential scan.  Worthwhile when capacities are loose relative
    to block-local degree collisions — e.g. after degree-descending edge
    grouping.  Measured never faster than the sequential scan; kept as an
    independent exact schedule the scan is cross-checked against.
    """
    m = int(edge_u.shape[0])
    n = int(capacities.shape[0])
    kept = np.zeros(m, dtype=bool)
    loads = np.zeros(n, dtype=np.int64)
    for start in range(0, m, block_size):
        end = min(start + block_size, m)
        block_u = edge_u[start:end]
        block_v = edge_v[start:end]
        in_block = np.bincount(np.concatenate((block_u, block_v)), minlength=n)
        if np.all(in_block <= capacities - loads):
            kept[start:end] = True
            loads += in_block
            continue
        saturated = loads >= capacities
        viable = np.nonzero(~(saturated[block_u] | saturated[block_v]))[0]
        base = loads.tolist()
        caps = capacities.tolist()
        increment: Dict[int, int] = {}
        for k in viable.tolist():
            u = int(block_u[k])
            v = int(block_v[k])
            if (
                base[u] + increment.get(u, 0) < caps[u]
                and base[v] + increment.get(v, 0) < caps[v]
            ):
                kept[start + k] = True
                increment[u] = increment.get(u, 0) + 1
                increment[v] = increment.get(v, 0) + 1
        for node, extra in increment.items():
            loads[node] += extra
    return kept
