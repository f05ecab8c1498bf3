"""Mask-plan construction for a batch of tagged sequences.

A plan records which positions are prediction targets and how each one
is corrupted on the input side: replaced by the mask token, replaced by
a random non-reserved token, or kept as-is (all three still contribute
to the loss). Special positions ([CLS]/[SEP]/[PAD]) are never selected.

``build_batch`` is the one entry point; a single sequence is a batch of
one row. Positions are drawn by ``sample_weighted``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTION_MASK = 0
ACTION_RANDOM = 1
ACTION_KEEP = 2
ACTION_NAMES = ("mask", "random", "keep")

# BERT's corruption split: a selected position becomes the mask token with
# probability MASK_FRAC, a random non-reserved token with RANDOM_FRAC, and
# stays itself otherwise.
MASK_FRAC = 0.8
RANDOM_FRAC = 0.1


@dataclass(frozen=True)
class MaskPolicy:
    """How positions are picked.

    strategy: "random" (uniform over maskable positions) or "ptw"
    (proportional to the per-category weight vector).
    """

    strategy: str = "random"

    def __post_init__(self):
        if self.strategy not in ("random", "ptw"):
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass
class BatchPlan:
    """Plans for a [B, L] batch; masked positions are listed row-major,
    columns ascending within a row."""

    rows: np.ndarray           # int64 row of each masked position
    cols: np.ndarray           # int64 column of each masked position
    actions: np.ndarray        # uint8, aligned with rows/cols
    corrupted_ids: np.ndarray  # [B, L] ids after corruption
    labels: np.ndarray         # original ids at the masked positions


def target_count(ratio: float, n_maskable):
    """Number of positions to mask: round(ratio * n_maskable), at least 1
    while the ratio is nonzero so floor-ratio batches still train.
    Elementwise when ``n_maskable`` is an array."""
    if not 0.0 <= ratio < 1.0:  # NaN fails too
        raise ValueError(f"ratio must be in [0, 1), got {ratio}")
    n = np.asarray(n_maskable, dtype=np.int64)
    count = (ratio * n + 0.5).astype(np.int64)
    if ratio > 0.0:
        count = np.maximum(count, np.minimum(n, 1))
    return count


def _position_weights(pos_ids, special, weights_by_category=None) -> np.ndarray:
    """Sampling weight of every position: 0 at special positions, else 1
    (uniform) or the weight of the position's POS category."""
    if weights_by_category is None:
        return (~special).astype(np.float64)
    w = np.asarray(weights_by_category, dtype=np.float64)
    if np.any(w[pos_ids[~special]] <= 0.0):
        raise ValueError("category weights at eligible positions must be > 0")
    return np.where(special, 0.0, w[pos_ids])


def build_batch(token_ids, pos_ids, special, ratio: float, policy: MaskPolicy, vocab,
                rng: np.random.Generator, weights_by_category=None) -> BatchPlan:
    """Select target_count positions per row by the policy's strategy, then corrupt
    them by the MASK_FRAC / RANDOM_FRAC split.

    token_ids, pos_ids, special: [B, L]; all rows draw from the one ``rng``.
    """
    if policy.strategy == "ptw" and weights_by_category is None:
        raise ValueError("ptw strategy needs a category weight vector")
    weights = _position_weights(pos_ids, special,
                                weights_by_category if policy.strategy == "ptw" else None)
    counts = target_count(ratio, np.count_nonzero(~special, axis=1))
    selected = sample_weighted(weights, counts, rng)
    return _corrupt(token_ids, selected, vocab, rng)


def sample_weighted(weights: np.ndarray, counts: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Boolean [B, L] selection of counts[b] distinct positions in row b, with
    the law of successive proportional draws: each draw picks position i with
    probability proportional to weights[b, i] among those not yet taken.

    weights: non-negative [B, L], 0 marks an ineligible position.
    counts: [B] draws per row, each at most the row's eligible positions.

    Gumbel-top-k (Efraimidis & Spirakis 2006; Kool et al. 2019): perturb each
    log-weight with an independent standard Gumbel variable and keep the
    counts[b] largest keys of row b; the selected set has exactly the law of
    the sequential process. Keys are formed in log space so that even a
    subnormal weight gets a finite key and beats every zero-weight position,
    whose key is -inf.
    """
    w = np.asarray(weights, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    if w.ndim != 2 or counts.shape != (w.shape[0],):
        raise ValueError(f"weights must be [B, L] and counts [B], got {w.shape} and {counts.shape}")
    eligible = np.count_nonzero(w, axis=1)
    if np.any(counts < 0) or np.any(counts > eligible):
        bad = int(np.argmax((counts < 0) | (counts > eligible)))
        raise ValueError(f"cannot draw {counts[bad]} from {eligible[bad]} eligible positions")
    with np.errstate(divide="ignore"):
        keys = np.log(w)
    keys += rng.gumbel(size=w.shape)
    order = np.argsort(-keys, axis=1, kind="stable")
    selected = np.zeros(w.shape, dtype=bool)
    np.put_along_axis(selected, order, np.arange(w.shape[1]) < counts[:, None], axis=1)
    return selected


def _corrupt(token_ids, selected, vocab, rng) -> BatchPlan:
    """Assign a corruption action to each selected position and apply it;
    random replacements draw uniformly from the non-reserved ids."""
    rows, cols = np.nonzero(selected)
    u = rng.random(rows.size)
    random_ids = rng.integers(vocab.n_reserved, vocab.size, size=rows.size, dtype=np.int64)
    actions = np.full(rows.size, ACTION_KEEP, dtype=np.uint8)
    actions[u < MASK_FRAC + RANDOM_FRAC] = ACTION_RANDOM
    actions[u < MASK_FRAC] = ACTION_MASK
    original = np.asarray(token_ids, dtype=np.int64)
    corrupted = original.copy()
    is_mask, is_random = actions == ACTION_MASK, actions == ACTION_RANDOM
    corrupted[rows[is_mask], cols[is_mask]] = vocab.mask_id
    corrupted[rows[is_random], cols[is_random]] = random_ids[is_random]
    return BatchPlan(rows=rows, cols=cols, actions=actions, corrupted_ids=corrupted,
                     labels=original[rows, cols])
