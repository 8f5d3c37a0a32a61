"""Skip-gram with negative sampling (SGNS), pure numpy.

Trains node embeddings from random-walk corpora: every (center, context)
pair inside a sliding window is a positive example; negatives are drawn
from the unigram^0.75 distribution (the word2vec convention).

The trainer builds the full (center, context) pair arrays once from the
walk matrix — one diagonal slice per window offset, no per-window Python
loop — then trains in shuffled mini-batches:

* **Negatives** come from a Walker/Vose alias table built once over
  unigram^0.75: a batch draws a uniform column and a uniform threshold
  per negative and keeps the column or its alias, O(1) per draw
  (Mikolov et al. 2013 use a precomputed unigram table for the same
  reason).  Nodes absent from the walks carry zero mass and are never
  drawn.
* **Tables** are float32 while training (word2vec's ``REAL``); the
  result is cast to ``float64`` once on return.
* **Updates.** Scores and gradients are computed for the whole batch
  against pre-batch parameters, then both tables take their updates.
  The center table is a flat ``np.add.at`` scatter.  The context table
  takes ``B·K`` rank-1 updates per batch (``K = negatives + 1``): on a
  small graph they are summed into a dense ``(n, B)`` weight matrix and
  applied as one GEMM, ``context += W @ center_vectors``; on a large
  graph the GEMM's ``n·B·D`` work loses to the ``B·K·D``-element flat
  scatter.  :func:`scatter_path` picks the dense path up to
  ``5·K·D`` nodes (960 at the default ``K = 6``, ``D = 32``): in full
  training runs on a 2-vCPU host the two paths tied at 4–5·K·D nodes
  for every ``D`` ∈ {16, 32, 64} and ``K`` ∈ {2, 6, 11} tried, and the
  dense path took 25% less time on the 524-node ca-grqc reduction.

The per-center sequential loop in ``tests/oracles/embedding.py`` applies
the same per-example gradient formula and the same linearly-decayed
learning rate; the two differ in update granularity (a mini-batch uses
pre-batch parameters for every example in it, the scalar loop updates
after every center), so equivalence is statistical — the link-prediction
task pins end-to-end utility agreement.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence, Tuple, Union

import numpy as np

from repro.errors import EmbeddingError
from repro.rng import RandomState, ensure_rng

__all__ = [
    "train_skipgram",
    "build_skipgram_pairs",
    "count_skipgram_pairs",
    "scatter_path",
]

WalkCorpus = Union[Sequence[Sequence[int]], np.ndarray]

#: Nodes per ``(negatives + 1) · dimensions`` up to which the context
#: update is a dense GEMM (see the module docstring for the measurement).
#: The ``(n, B)`` float32 buffer then stays under 2x the scatter path's own
#: ``B·K·D`` float32 updates plus int64 cell indices.
_DENSE_NODES_PER_CELL = 5


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Clip to keep exp() in range; gradients saturate there anyway.
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def _scatter_rows(table: np.ndarray, rows: np.ndarray, updates: np.ndarray) -> None:
    """``table[rows] += updates`` with duplicate rows accumulated.

    One flat ``np.add.at`` over ``(row, column)`` cells: same dtype on
    both sides keeps it on NumPy's unbuffered fast path, which measured
    faster than a flattened ``bincount`` at every table size tried
    (0.5k–36k rows) and than a row-wise ``add.at``.
    """
    dimensions = table.shape[1]
    cells = rows[:, None] * dimensions + np.arange(dimensions)
    np.add.at(table.reshape(-1), cells.ravel(), updates.ravel())


def _alias_table(weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Walker/Vose alias table for drawing ``i`` with probability ∝ ``weights[i]``.

    A draw picks a uniform column ``j`` and keeps it with probability
    ``accept[j]``, else returns ``alias[j]``.  A zero-weight entry gets
    ``accept = 0`` and is never an alias (aliases are donors with mass
    left), so it is never drawn.
    """
    n = weights.shape[0]
    mass = (weights * (n / weights.sum())).tolist()
    accept = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    small = [i for i, m in enumerate(mass) if m < 1.0]
    large = [i for i, m in enumerate(mass) if m >= 1.0]
    while small and large:
        low, high = small.pop(), large[-1]
        accept[low] = mass[low]
        alias[low] = high
        # Vose's ordering: (high + low) - 1 loses less than high - (1 - low).
        mass[high] = (mass[high] + mass[low]) - 1.0
        if mass[high] < 1.0:
            small.append(large.pop())
    # Whatever is left has mass 1 up to rounding and keeps accept = 1.
    return accept, alias


def _draw_negatives(
    rng: np.random.Generator,
    accept: np.ndarray,
    alias: np.ndarray,
    shape: Tuple[int, int],
) -> np.ndarray:
    """``shape`` node ids from an :func:`_alias_table`: one uniform column
    and one uniform threshold per draw."""
    column = rng.integers(accept.shape[0], size=shape)
    return np.where(rng.random(shape) < accept[column], column, alias[column])


def _dense_context_update(
    context: np.ndarray,
    row_gradients: np.ndarray,
    targets: np.ndarray,
    gradient: np.ndarray,
    center_vectors: np.ndarray,
) -> None:
    """``context[targets[b, k]] += gradient[b, k] · center_vectors[b]`` as one GEMM.

    ``row_gradients`` is a zeroed ``(n, B_max)`` buffer: cell ``(t, b)``
    collects example ``b``'s summed gradient on context row ``t`` (a
    negative drawn twice adds twice), the GEMM applies every row at once,
    and the touched cells are zeroed again for the next batch.
    """
    size = targets.shape[0]
    cells = (targets * row_gradients.shape[1] + np.arange(size)[:, None]).ravel()
    flat = row_gradients.reshape(-1)
    np.add.at(flat, cells, gradient.ravel())
    context += row_gradients[:, :size] @ center_vectors
    flat[cells] = 0.0


def scatter_path(num_nodes: int, dimensions: int, negatives: int) -> str:
    """How :func:`train_skipgram` applies context updates: ``"dense"`` or ``"scatter"``.

    ``"dense"`` sums a batch's updates into an ``(n, B)`` matrix and
    applies one GEMM; ``"scatter"`` adds them with one flat scatter.  The
    GEMM's cost grows with the node count, so it runs only on graphs of at
    most ``5·(negatives + 1)·dimensions`` nodes.
    """
    limit = _DENSE_NODES_PER_CELL * (negatives + 1) * dimensions
    return "dense" if num_nodes <= limit else "scatter"


def _as_walk_matrix(walks: WalkCorpus) -> np.ndarray:
    """Walk corpus as a dense ``int64[W, L]`` matrix, padded with ``-1``.

    The batched walk generator already produces the matrix (all rows full
    length); list-of-lists corpora are right-padded so the pair builder can
    slice diagonally.
    """
    if isinstance(walks, np.ndarray):
        if walks.ndim != 2:
            raise EmbeddingError(f"walk matrix must be 2-D, got shape {walks.shape}")
        return walks.astype(np.int64, copy=False)
    lengths = [len(walk) for walk in walks]
    matrix = np.full((len(lengths), max(lengths, default=0)), -1, dtype=np.int64)
    for row, walk in enumerate(walks):
        matrix[row, : lengths[row]] = walk
    # Negative cells must all be padding; a negative *node id* in the
    # input would otherwise masquerade as padding.
    if int((matrix < 0).sum()) != matrix.size - sum(lengths):
        raise EmbeddingError(f"walk contains out-of-range node id {int(matrix.min())}")
    return matrix


def _offset_pairs(matrix: np.ndarray, window: int):
    """``(left, right)`` id arrays of every unpadded pair ``d = 1..window`` apart."""
    if window < 1:
        raise EmbeddingError(f"window must be >= 1, got {window}")
    for offset in range(1, min(window, matrix.shape[1] - 1) + 1):
        left = matrix[:, :-offset].ravel()
        right = matrix[:, offset:].ravel()
        valid = (left >= 0) & (right >= 0)
        yield left[valid], right[valid]


def build_skipgram_pairs(
    walks: WalkCorpus, window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """All ordered (center, context) pairs within ``window``, as flat arrays.

    For each offset ``d = 1..window``, the pair ``(walk[i], walk[i + d])``
    is emitted in both directions — exactly the multiset the per-position
    sliding-window loop produces.  Padding entries (``-1``) never pair.
    """
    centers = []
    contexts = []
    for left, right in _offset_pairs(_as_walk_matrix(walks), window):
        centers += [left, right]
        contexts += [right, left]
    if not centers:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(centers), np.concatenate(contexts)


def count_skipgram_pairs(walks: WalkCorpus, window: int) -> int:
    """Number of pairs :func:`build_skipgram_pairs` returns (one SGNS epoch's examples)."""
    return sum(
        2 * left.shape[0] for left, _ in _offset_pairs(_as_walk_matrix(walks), window)
    )


def _check_count(name: str, value: object, minimum: int) -> None:
    if (
        not isinstance(value, numbers.Integral)
        or isinstance(value, bool)
        or value < minimum
    ):
        raise EmbeddingError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _validate(
    walks: WalkCorpus,
    num_nodes: int,
    dimensions: int,
    window: int,
    negatives: int,
    epochs: int,
    learning_rate: float,
    batch_size: int,
) -> None:
    _check_count("num_nodes", num_nodes, 1)
    _check_count("dimensions", dimensions, 1)
    _check_count("window", window, 1)
    _check_count("negatives", negatives, 0)
    _check_count("epochs", epochs, 1)
    _check_count("batch_size", batch_size, 1)
    if (
        not isinstance(learning_rate, numbers.Real)
        or isinstance(learning_rate, bool)
        or not math.isfinite(learning_rate)
        or learning_rate <= 0
    ):
        raise EmbeddingError(
            f"learning_rate must be a finite number > 0, got {learning_rate!r}"
        )
    if len(walks) == 0:
        raise EmbeddingError("cannot train on an empty walk corpus")


def train_skipgram(
    walks: WalkCorpus,
    num_nodes: int,
    dimensions: int = 32,
    window: int = 5,
    negatives: int = 5,
    epochs: int = 2,
    learning_rate: float = 0.025,
    seed: RandomState = None,
    batch_size: int = 1024,
) -> np.ndarray:
    """Train SGNS embeddings; returns ``float64[num_nodes, dimensions]``.

    ``walks`` may be a list of id lists or a dense walk matrix from
    :func:`repro.embedding.walks.generate_walk_matrix`.  Nodes that never
    appear in ``walks`` keep their small random initialisation (they
    carry no signal either way).
    """
    _validate(
        walks, num_nodes, dimensions, window, negatives, epochs, learning_rate,
        batch_size,
    )
    matrix = _as_walk_matrix(walks)
    present = matrix[matrix >= 0]
    if present.size == 0:
        raise EmbeddingError("walk corpus is empty of nodes")
    if int(present.max()) >= num_nodes:
        raise EmbeddingError(
            f"walk contains out-of-range node id {int(present.max())}"
        )

    rng = ensure_rng(seed)
    initial = (rng.random((num_nodes, dimensions)) - 0.5) / dimensions
    embeddings = initial.astype(np.float32)
    context = np.zeros((num_nodes, dimensions), dtype=np.float32)
    frequency = np.bincount(present, minlength=num_nodes).astype(np.float64)
    accept, alias = _alias_table(frequency**0.75)

    pair_centers, pair_contexts = build_skipgram_pairs(matrix, window)
    num_pairs = pair_centers.shape[0]
    if num_pairs == 0:
        return embeddings.astype(np.float64)
    # A mini-batch applies every example against pre-batch parameters, so
    # an epoch needs enough batches for the SGD dynamics to develop: on a
    # tiny corpus one corpus-sized batch collapses all vectors onto a
    # common direction.  Cap the batch at ~1/8 of the pair set.
    effective_batch = max(1, min(batch_size, num_pairs // 8 or 1))
    targets = np.empty((effective_batch, negatives + 1), dtype=np.int64)
    dense = scatter_path(num_nodes, dimensions, negatives) == "dense"
    if dense:
        row_gradients = np.zeros((num_nodes, effective_batch), dtype=np.float32)

    for epoch in range(epochs):
        rate = learning_rate * (1.0 - epoch / epochs) + 1e-4
        order = rng.permutation(num_pairs)
        for lo in range(0, num_pairs, effective_batch):
            batch = order[lo : lo + effective_batch]
            size = batch.shape[0]
            centers = pair_centers[batch]
            batch_targets = targets[:size]
            batch_targets[:, 0] = pair_contexts[batch]
            if negatives:
                batch_targets[:, 1:] = _draw_negatives(
                    rng, accept, alias, (size, negatives)
                )

            center_vectors = embeddings[centers]  # (B, D)
            target_vectors = context[batch_targets]  # (B, K, D)
            # gradient = (label - σ(score)) · rate; label 1 for column 0.
            gradient = -_sigmoid(
                np.einsum("bd,bkd->bk", center_vectors, target_vectors)
            )
            gradient[:, 0] += 1.0
            gradient *= rate
            center_updates = np.einsum("bk,bkd->bd", gradient, target_vectors)
            # Centers and targets repeat within a batch: every update
            # accumulates, and all of them use pre-batch parameters.
            _scatter_rows(embeddings, centers, center_updates)
            if dense:
                _dense_context_update(
                    context, row_gradients, batch_targets, gradient, center_vectors
                )
            else:
                _scatter_rows(
                    context,
                    batch_targets.ravel(),
                    gradient[:, :, None] * center_vectors[:, None, :],
                )
    return embeddings.astype(np.float64)
