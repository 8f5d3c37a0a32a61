"""CSR-native array kernels for per-source graph traversals.

This module is the hot path of the whole library.  CRR's Phase-1 edge
ranking and the node-betweenness evaluation task run one BFS per source
with Brandes' reverse dependency accumulation.  The shortest-path and
hop-plot sweeps and closeness centrality only need how many nodes sit at
each distance from each source, so they share one bit-parallel
multi-source BFS (MS-BFS; Then et al., "The More the Merrier", VLDB 2015)
in which 64 sources advance per ``uint64`` word and a level is one OR of
the frontier words over CSR neighbourhoods.  Running either over Python
dicts-of-sets costs a dict operation per traversed edge; these kernels
instead operate on a :class:`CSRAdjacency` snapshot with flat numpy
arrays — ``int64`` distances, ``float64`` path counts and dependencies,
``uint64`` source bitsets — and process each BFS *level* as one
vectorised batch.

Key representation choices:

* **No predecessor lists.**  Brandes' classic formulation stores explicit
  predecessor lists per node.  In an unweighted graph a neighbour ``v`` of
  ``w`` is a predecessor iff ``dist[v] == dist[w] - 1``, so the reverse
  sweep re-derives predecessors from the CSR neighbour slices with one
  vectorised mask per level — no per-source allocation beyond three flat
  scratch arrays.
* **Half-edge accumulation.**  Edge betweenness accumulates into a
  ``float64[2m]`` array indexed by CSR *entry position* (a "half-edge":
  the slot of neighbour ``v`` inside ``w``'s slice).  Per level the
  touched entry positions are distinct, so accumulation is a plain fancy
  ``+=``.  The two oriented halves of each undirected edge are folded
  together only at the API boundary
  (:meth:`CSRAdjacency.undirected_entries`).
* **Source bitsets, not distances.**  The distance sweeps keep a
  ``uint64[n, w]`` *seen* matrix per block of ``64 w`` sources; a level's
  histogram entry is the popcount of the bits it newly set.  Counts are
  integers, so results equal the per-source loop in
  ``tests/oracles/traversal.py`` exactly.  Blocks and gathers are sized
  by ``_CELL_BUDGET``, so scratch does not grow with the number of
  sources or edges (see :func:`_bit_levels`).  Brandes is not batched
  this way: path counts are not bits.
* **Identical arithmetic.**  Each scalar contribution is computed by the
  same formula as the dict implementation in ``tests/oracles/centrality.py``
  (``sigma[v] * (1 + delta[w]) / sigma[w]``); shortest-path counts are
  integers represented exactly in ``float64``, so ``sigma`` is bit-exact
  and only the *summation order* of ``delta`` differs — scores match the
  dict implementation to ~1e-12 relative (property-tested to 1e-9).

The functions here speak integer node ids and raw (unnormalised,
both-directions) scores.  Normalisation conventions, label mapping, and
seeded source sampling live in the wrappers
(:mod:`repro.graph.centrality`, :mod:`repro.graph.shortest_paths`,
:mod:`repro.graph.centrality_extra`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRAdjacency

__all__ = [
    "brandes_accumulate",
    "bfs_distance_array",
    "bfs_level_sizes",
    "distance_histogram",
    "source_level_counts",
    "component_ids",
    "walk_epoch_matrix",
]

_EMPTY = np.empty(0, dtype=np.int64)

#: Scratch budget of the multi-source sweep, in 8-byte cells: a block packs
#: ``_CELL_BUDGET // n`` words of source bits per node, and each gather
#: covers at most ``_CELL_BUDGET`` words of neighbour bits.
_CELL_BUDGET = 1 << 18

#: A frontier owning at least ``1 / _PULL_RATIO`` of the CSR entries is
#: pulled over every row instead of pushed along its own entries.
_PULL_RATIO = 8

#: A pull ORs neighbour slot ``k`` of all rows in one step while those
#: rows hold at least this many words; below it one ``reduceat`` per row
#: is cheaper than another Python step.
_SLOT_CELLS = 1024


def _expand(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All CSR entries of ``frontier`` nodes, as one flat batch.

    Returns ``(positions, targets, rep)`` where ``positions`` indexes into
    ``indices`` (the half-edge ids), ``targets = indices[positions]``, and
    ``rep`` maps each entry back to its row in ``frontier``.
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    if int(counts.sum()) == 0:
        return _EMPTY, _EMPTY, _EMPTY
    positions = _segments(starts, counts)
    return positions, indices[positions], np.repeat(np.arange(frontier.shape[0]), counts)


def _segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """CSR positions ``starts[k] .. starts[k] + counts[k] - 1`` for every ``k``, flat."""
    ends = np.cumsum(counts)
    # Entry t of segment k lands at output offset (ends[k]-counts[k])+t
    # and must read CSR position starts[k]+t.
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])


def _scatter_add(out: np.ndarray, targets: np.ndarray, values: np.ndarray) -> None:
    """``out[targets] += values`` with duplicate targets accumulated.

    ``np.bincount`` is much faster than ``np.add.at`` for the dense
    frontiers BFS produces; fall back to ``add.at`` when the batch is tiny
    relative to the array (bincount would be dominated by its allocation).
    """
    if targets.shape[0] * 8 < out.shape[0]:
        np.add.at(out, targets, values)
    else:
        out += np.bincount(targets, weights=values, minlength=out.shape[0])


def _next_frontier(dist: np.ndarray, fresh_targets: np.ndarray, depth: int) -> np.ndarray:
    """Deduplicated, ascending next-level frontier.

    ``fresh_targets`` carries one entry per discovering edge, so a node
    with several same-level parents appears several times; the caller has
    already marked ``dist[fresh_targets] = depth``.  For frontiers small
    relative to ``n``, sorting the batch (``np.unique``) is cheaper than
    scanning all of ``dist``; for dense frontiers the O(n) mark-then-scan
    wins.  Both yield the same ascending id order, so downstream level
    arithmetic is identical either way — the same adaptive switch as
    :func:`_scatter_add`.
    """
    if fresh_targets.shape[0] * 8 < dist.shape[0]:
        return np.unique(fresh_targets)
    return np.nonzero(dist == depth)[0]


def brandes_accumulate(
    csr: CSRAdjacency,
    sources: Iterable[int],
    node_scores: Optional[np.ndarray] = None,
    edge_scores: Optional[np.ndarray] = None,
) -> None:
    """Brandes' betweenness accumulation from each source id, summed in place.

    Args:
        csr: the adjacency snapshot.
        sources: integer node ids to run the accumulation from.
        node_scores: ``float64[n]`` — raw node dependencies are added here
            (every source contributes ``delta[v]`` for each reached
            ``v != source``), or ``None`` to skip node accumulation.
        edge_scores: ``float64[2m]`` half-edge array — each shortest-path
            DAG edge's contribution is added at the CSR entry position of
            its deeper endpoint's slice, or ``None`` to skip.  Fold with
            :meth:`CSRAdjacency.undirected_entries` to get per-edge totals.

    Raw scores follow the dict implementation's convention: nothing
    is normalised and each unordered pair contributes from both endpoints.
    """
    indptr, indices = csr.indptr, csr.indices
    n = csr.num_nodes
    dist = np.empty(n, dtype=np.int64)
    sigma = np.empty(n, dtype=np.float64)
    delta = np.empty(n, dtype=np.float64)
    for source in _source_ids(csr, sources):
        dist.fill(-1)
        sigma.fill(0.0)
        dist[source] = 0
        sigma[source] = 1.0
        levels: List[np.ndarray] = [np.array([source], dtype=np.int64)]
        # Per level, the backward sweep's pre-extracted batch: the CSR
        # entries pointing one level *up* (node -> predecessor).  Built
        # during the forward pass — a neighbour at depth-1 already has its
        # final distance when the depth-level batch is expanded — so the
        # CSR slices are gathered exactly once per source.
        rootward: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = [
            (_EMPTY, _EMPTY, _EMPTY)
        ]
        # Forward: level-synchronous BFS with shortest-path counting.
        depth = 0
        while True:
            positions, targets, rep = _expand(indptr, indices, levels[-1])
            target_depths = dist[targets]
            if depth > 0:
                toward_root = target_depths == depth - 1
                rootward.append(
                    (positions[toward_root], targets[toward_root], rep[toward_root])
                )
            else:
                # The source has no predecessors, and depth - 1 == -1 would
                # match *unvisited* neighbours instead.  The backward sweep
                # only reads rootward[2:], so rootward[1] stays empty.
                rootward.append((_EMPTY, _EMPTY, _EMPTY))
            fresh = target_depths < 0
            fresh_targets = targets[fresh]
            if fresh_targets.shape[0] == 0:
                break
            depth += 1
            dist[fresh_targets] = depth
            next_level = _next_frontier(dist, fresh_targets, depth)
            # Every (level d -> level d+1) CSR entry appears exactly once in
            # this batch, so sigma sums all predecessor path counts.
            _scatter_add(sigma, fresh_targets, sigma[levels[-1]][rep[fresh]])
            levels.append(next_level)
        # Backward: dependency accumulation, deepest level first.  All
        # successors of a node sit exactly one level deeper, so each
        # delta[v] is fully accumulated within a single batch.
        delta.fill(0.0)
        for depth in range(len(levels) - 1, 0, -1):
            frontier = levels[depth]
            positions, predecessors, rep = rootward[depth + 1]
            coefficient = (1.0 + delta[frontier]) / sigma[frontier]
            contribution = sigma[predecessors] * coefficient[rep]
            _scatter_add(delta, predecessors, contribution)
            if edge_scores is not None:
                # Entry positions are distinct within one batch (one slot
                # per CSR entry), so a fancy += accumulates correctly.
                edge_scores[positions] += contribution
        if node_scores is not None:
            for frontier in levels[1:]:
                node_scores[frontier] += delta[frontier]


def bfs_distance_array(
    csr: CSRAdjacency, source: int, cutoff: Optional[int] = None
) -> np.ndarray:
    """Hop distances from ``source`` as ``int64[n]`` (-1 for unreachable).

    ``cutoff`` bounds the search depth (inclusive), matching
    :func:`repro.graph.traversal.bfs_distances`.
    """
    source = int(_source_ids(csr, [source])[0])
    n = csr.num_nodes
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size and (cutoff is None or depth < cutoff):
        _, targets, _ = _expand(csr.indptr, csr.indices, frontier)
        fresh = targets[dist[targets] < 0]
        if fresh.size == 0:
            break
        depth += 1
        dist[fresh] = depth
        frontier = _next_frontier(dist, fresh, depth)
    return dist


def bfs_level_sizes(csr: CSRAdjacency, source: int) -> List[int]:
    """Number of nodes at each hop distance ``1, 2, ...`` from ``source``.

    The summary every distance sweep needs: level ``d``'s size is the count
    of nodes at distance exactly ``d``, so distance histograms, closeness
    sums, and hop-plots never materialise per-node dictionaries.  One row
    of :func:`source_level_counts`.
    """
    counts = source_level_counts(csr, [source])[0]
    return counts[1:].tolist()


def source_level_counts(csr: CSRAdjacency, sources: Iterable[int]) -> np.ndarray:
    """Nodes at each hop distance from each source, ``int64[S, D + 1]``.

    Row ``i`` counts the nodes at distance ``0, 1, ..., D`` from
    ``sources[i]`` (column 0 is always 0), where ``D`` is the largest
    eccentricity among the sources; a source's row is zero past its own
    eccentricity.  Duplicate sources get duplicate rows.
    """
    ids = _source_ids(csr, sources)
    levels: List[np.ndarray] = [np.zeros(ids.shape[0], dtype=np.int64)]
    for first, depth, fresh in _bit_levels(csr, ids):
        if depth == len(levels):
            levels.append(np.zeros(ids.shape[0], dtype=np.int64))
        lanes = _lane_popcounts(fresh)
        width = min(lanes.shape[0], ids.shape[0] - first)
        levels[depth][first : first + width] += lanes[:width]
    return np.stack(levels, axis=1)


def distance_histogram(csr: CSRAdjacency, sources: Iterable[int]) -> np.ndarray:
    """Counts of (source, node) pairs per hop distance, over all ``sources``.

    Returns ``int64[max_distance + 1]`` with index = distance; index 0 is
    always 0 (a node is not a pair with itself).  This is the array form of
    :func:`repro.graph.shortest_paths.pairwise_distance_counts`, and equals
    ``source_level_counts(csr, sources).sum(axis=0)`` without keeping the
    per-source rows: each level's entry is one popcount of the fresh bits.
    """
    counts: List[int] = [0]
    for _, depth, fresh in _bit_levels(csr, _source_ids(csr, sources)):
        if depth == len(counts):
            counts.append(0)
        counts[depth] += _popcount(fresh)
    return np.asarray(counts, dtype=np.int64)


def _source_ids(csr: CSRAdjacency, sources: Iterable[int]) -> np.ndarray:
    """``sources`` as ``int64`` node ids, or :class:`GraphError` naming the bad one.

    Accepts integers (Python or numpy, not ``bool``) in ``[0, n)``; a float
    such as ``1.5`` is refused rather than truncated to a different node.
    """
    n = csr.num_nodes
    if isinstance(sources, np.ndarray) and sources.ndim == 1 and sources.dtype.kind in "iu":
        bad = np.flatnonzero((sources < 0) | (sources >= n))
        if bad.shape[0]:
            raise GraphError(
                f"source id {sources[bad[0]]} is not a node id of a {n}-node graph"
            )
        return sources.astype(np.int64, copy=False)
    ids = list(sources)
    for source in ids:
        if isinstance(source, (bool, np.bool_)) or not isinstance(source, (int, np.integer)):
            raise GraphError(f"source id {source!r} is not an integer node id")
        if not 0 <= source < n:
            raise GraphError(f"source id {source} is not a node id of a {n}-node graph")
    return np.asarray(ids, dtype=np.int64)


def _popcount(words: np.ndarray) -> int:
    """Total set bits of a ``uint64`` array (SWAR, so numpy < 2.0 works too)."""
    words = words - ((words >> np.uint64(1)) & np.uint64(0x5555555555555555))
    words = (words & np.uint64(0x3333333333333333)) + (
        (words >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    words = (words + (words >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return int(((words * np.uint64(0x0101010101010101)) >> np.uint64(56)).sum(dtype=np.int64))


def _lane_popcounts(words: np.ndarray) -> np.ndarray:
    """Per-lane set-bit counts of ``uint64[k, w]``: ``int64[64 w]``, lane ``64j + b``
    being bit ``b`` of word ``j``.  Rows are unpacked in budget-sized chunks."""
    counts = np.zeros(64 * words.shape[1], dtype=np.int64)
    step = max(1, _CELL_BUDGET // (8 * words.shape[1]))
    for lo in range(0, words.shape[0], step):
        # Little-endian bytes: byte 8j + k of a row holds bits 8k..8k+7 of word j.
        chunk = words[lo : lo + step].astype("<u8", copy=False).view(np.uint8)
        counts += np.unpackbits(chunk, axis=1, bitorder="little").sum(axis=0, dtype=np.int64)
    return counts


def _row_chunks(row_degrees: np.ndarray, cap: int) -> List[Tuple[int, int]]:
    """Split (at least one) rows into consecutive ``(lo, hi)`` runs of about
    ``cap`` entries.

    A run holds at most ``cap`` entries plus its first row's degree (a row
    is never split).
    """
    ends = np.cumsum(row_degrees)
    if ends[-1] <= cap:
        return [(0, row_degrees.shape[0])]
    cuts = np.searchsorted(ends, np.arange(cap, ends[-1], cap), side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [row_degrees.shape[0]])))
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


def _or_by_target(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray, words: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Push ``words[i]`` along every CSR entry of ``rows[i]``; OR per target.

    Returns ``(targets, merged)`` with ``targets`` ascending and distinct.
    """
    _, targets, rep = _expand(indptr, indices, rows)
    order = np.argsort(targets)
    targets = targets[order]
    heads = np.flatnonzero(np.concatenate(([True], targets[1:] != targets[:-1])))
    return targets[heads], np.bitwise_or.reduceat(words[rep[order]], heads, axis=0)


class _PullPlan:
    """Row order for ORing every row's neighbour words, built once per sweep.

    Rows with an edge are sorted by degree, largest first, so the rows
    owning a ``k``-th neighbour are a prefix: neighbour slot ``k`` is one
    gather and one ``|=`` over that prefix, with contiguous ``w``-word
    rows (a ``reduceat`` over ``axis=0`` runs several times slower on
    multi-word rows).  A slot gets its own step only while its owners
    hold at least ``_SLOT_CELLS`` words; the later slots belong to a few
    heavy rows, whose tails are OR-reduced per row with ``reduceat`` in
    budget-sized chunks, so no hub costs one Python step per neighbour.
    """

    def __init__(self, indptr: np.ndarray, degrees: np.ndarray) -> None:
        nonempty = np.flatnonzero(degrees)
        self.rows = nonempty[np.argsort(-degrees[nonempty], kind="stable")]
        self.starts = indptr[self.rows]
        self.degrees = degrees[self.rows]
        # owners[k]: how many rows have a neighbour in slot k (descending).
        self.owners = np.searchsorted(
            -self.degrees, -np.arange(int(self.degrees[0]) + 1), side="left"
        )

    def gather(self, indices: np.ndarray, board: np.ndarray) -> np.ndarray:
        """``out[i]`` = OR of ``board`` over the neighbours of ``self.rows[i]``."""
        width = board.shape[1]
        slots = max(1, int(np.count_nonzero(self.owners * width >= _SLOT_CELLS)))
        out = board[indices[self.starts]]
        for slot in range(1, slots):
            owners = self.owners[slot]
            out[:owners] |= board[indices[self.starts[:owners] + slot]]
        heavy = int(self.owners[slots])
        tails = self.degrees[:heavy] - slots
        for lo, hi in _row_chunks(tails, max(1, _CELL_BUDGET // width)) if heavy else []:
            positions = _segments(self.starts[lo:hi] + slots, tails[lo:hi])
            heads = np.cumsum(tails[lo:hi]) - tails[lo:hi]
            out[lo:hi] |= np.bitwise_or.reduceat(board[indices[positions]], heads, axis=0)
        return out


def _bit_levels(
    csr: CSRAdjacency, sources: np.ndarray
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Bit-parallel multi-source BFS (MS-BFS): yield ``(first, depth, fresh)``.

    Source ``sources[first + 64 j + b]`` owns bit ``b`` of word ``j`` in
    every node's row of a block's ``seen`` matrix.  For each block of
    sources and each level ``depth >= 1`` the generator yields ``fresh``,
    ``uint64[k, w]``: the bits newly set at that level, one row per node
    that gained any, so the popcount of ``fresh`` is the number of
    (source, node) pairs at distance ``depth``.

    A level ORs the frontier words over CSR neighbourhoods.  A frontier
    whose rows own few CSR entries is *pushed*: its entries are gathered,
    sorted by target and OR-reduced, touching only rows adjacent to the
    frontier.  A frontier owning at least ``1 / _PULL_RATIO`` of all
    entries, or more words of them than ``_CELL_BUDGET``, is *pulled*:
    every row ORs its neighbours' words (:class:`_PullPlan`), no sort
    needed.  Both give the same words, so the choice is pure cost.

    Memory: a block packs ``max(1, _CELL_BUDGET // n)`` words per node,
    and every gather of neighbour words covers at most ``_CELL_BUDGET``
    cells plus one row.  Peak scratch therefore stays below
    ``16 · (_CELL_BUDGET + n)`` eight-byte cells (about 32 MiB plus
    128 bytes per node at the default budget) however many sources or
    edges there are; only graphs past ``_CELL_BUDGET`` nodes grow it, as
    any ``int64[n]`` distance array would.
    """
    n = csr.num_nodes
    indptr, indices = csr.indptr, csr.indices
    degrees = np.diff(indptr)
    plan: Optional[_PullPlan] = None
    block_words = max(1, _CELL_BUDGET // max(n, 1))
    for first in range(0, sources.shape[0], 64 * block_words):
        lanes = sources[first : first + 64 * block_words]
        lane = np.arange(lanes.shape[0])
        width = -(-lanes.shape[0] // 64)
        seen = np.zeros((n, width), dtype=np.uint64)
        bits = np.left_shift(np.uint64(1), (lane & 63).astype(np.uint64))
        np.bitwise_or.at(seen, (lanes, lane >> 6), bits)
        rows = np.unique(lanes)
        fresh = seen[rows]
        depth = 0
        while rows.shape[0]:
            entries = int(degrees[rows].sum())
            if entries == 0:
                break
            depth += 1
            if entries * _PULL_RATIO < indices.shape[0] and entries * width <= _CELL_BUDGET:
                targets, merged = _or_by_target(indptr, indices, rows, fresh)
            else:
                if plan is None:
                    plan = _PullPlan(indptr, degrees)
                board = np.zeros((n, width), dtype=np.uint64)
                board[rows] = fresh
                targets, merged = plan.rows, plan.gather(indices, board)
            merged &= ~seen[targets]
            hit = np.flatnonzero(merged.any(axis=1))
            rows, fresh = targets[hit], merged[hit]
            seen[rows] |= fresh
            if rows.shape[0]:
                yield first, depth, fresh


def component_ids(csr: CSRAdjacency) -> np.ndarray:
    """Connected-component label per node, ``int64[n]``.

    Components are numbered 0, 1, ... in order of their first node's id
    (= insertion order), so the labelling is deterministic.
    """
    n = csr.num_nodes
    component = np.full(n, -1, dtype=np.int64)
    next_label = 0
    for seed in range(n):
        if component[seed] >= 0:
            continue
        component[seed] = next_label
        frontier = np.array([seed], dtype=np.int64)
        while frontier.size:
            _, targets, _ = _expand(csr.indptr, csr.indices, frontier)
            fresh = targets[component[targets] < 0]
            if fresh.size == 0:
                break
            component[fresh] = next_label
            # Dedup is load-bearing: ``fresh`` holds one copy of each node
            # per discovering edge, and carrying duplicates forward
            # multiplies across levels (exponentially on graphs with many
            # equal-length parallel paths).  ``component`` has no per-level
            # marker to scan, so sort the batch.
            frontier = np.unique(fresh)
        next_label += 1
    return component


def walk_epoch_matrix(
    csr: CSRAdjacency,
    rng: np.random.Generator,
    walk_length: int,
    p: float = 1.0,
    q: float = 1.0,
    starts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One epoch of batched node2vec walks: every walk advances one step
    per numpy operation.

    Starts one walk from each node in ``starts`` (default: every node of
    degree >= 1, ascending id order) and returns the walk matrix
    ``int64[len(starts), walk_length]`` of integer node ids.  Because the
    graph is undirected and simple, any node reached from a degree->=1
    start has a neighbour to continue to, so every row is full length —
    there is no padding.

    ``p == q == 1`` takes the uniform fast path: one ``random(W)`` draw
    per step indexes directly into the CSR neighbour slices.  Otherwise
    each step flattens the candidate neighbour slices of all current
    nodes, weights them ``1/p`` (return), ``1`` (distance-1 triangle edge:
    candidate adjacent to the previous node, tested by one global
    ``searchsorted`` against :meth:`CSRAdjacency.entry_keys`), or ``1/q``
    (outward), and inverse-samples the per-walk segment of the global
    weight cumsum with one uniform draw per walk.

    RNG contract: exactly one ``rng.random(W)`` draw per step past the
    first (the first step is always uniform — there is no previous node),
    for *both* paths, so a fixed generator state yields a bit-identical
    matrix regardless of chunking.  The parallel fan-out
    (:func:`repro.graph.parallel.parallel_walk_matrix`) relies on this:
    it hands each epoch its own child generator, making concurrent output
    equal serial output bit for bit.
    """
    indptr, indices = csr.indptr, csr.indices
    degrees = np.diff(indptr)
    if starts is None:
        starts = np.nonzero(degrees > 0)[0].astype(np.int64)
    num_walks = int(starts.shape[0])
    matrix = np.empty((num_walks, walk_length), dtype=np.int64)
    if num_walks == 0:
        return matrix
    matrix[:, 0] = starts
    if walk_length == 1:
        return matrix
    uniform = p == 1.0 and q == 1.0
    n = csr.num_nodes
    if not uniform:
        entry_keys = csr.entry_keys()
        inverse_p, inverse_q = 1.0 / p, 1.0 / q
    current = matrix[:, 0]
    for step in range(1, walk_length):
        draws = rng.random(num_walks)
        if uniform or step == 1:
            slots = (draws * degrees[current]).astype(np.int64)
            # draws < 1 keeps slots < degree mathematically; clip the
            # one-ulp rounding case anyway.
            np.minimum(slots, degrees[current] - 1, out=slots)
            chosen = indices[indptr[current] + slots]
        else:
            previous = matrix[:, step - 2]
            positions, candidates, rep = _expand(indptr, indices, current)
            previous_rep = previous[rep]
            weights = np.full(candidates.shape[0], inverse_q)
            keys = previous_rep * n + candidates
            found = np.searchsorted(entry_keys, keys)
            np.minimum(found, entry_keys.shape[0] - 1, out=found)
            weights[entry_keys[found] == keys] = 1.0
            weights[candidates == previous_rep] = inverse_p
            cdf = np.cumsum(weights)
            counts = degrees[current]
            segment_end = np.cumsum(counts)
            base = np.concatenate(([0.0], cdf))[segment_end - counts]
            targets = base + draws * (cdf[segment_end - 1] - base)
            picks = np.searchsorted(cdf, targets, side="right")
            np.minimum(picks, segment_end - 1, out=picks)
            chosen = candidates[picks]
        matrix[:, step] = chosen
        current = chosen
    return matrix
