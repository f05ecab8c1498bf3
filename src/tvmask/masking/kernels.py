"""Weighted sampling without replacement, batched over rows.

Each row b draws ``counts[b]`` distinct positions with the law of
successive proportional draws: every draw picks position i with
probability proportional to weights[b, i] among the positions not yet
taken. Zero-weight positions (special tokens) are never selected.

Gumbel-top-k (Efraimidis & Spirakis 2006; Kool et al. 2019): perturb
each log-weight with an independent standard Gumbel variable and keep
the ``count`` largest keys per row; the selected set has exactly the
law of the sequential process. Keys are formed in log space so that
even a subnormal weight gets a finite key and beats every zero-weight
position, whose key is -inf.
"""

from __future__ import annotations

import numpy as np


def sample_weighted(weights: np.ndarray, counts: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Boolean [B, L] selection with counts[b] positions chosen in row b.

    weights: non-negative [B, L], 0 marks an ineligible position.
    counts: [B] draws per row, each at most the row's eligible positions.
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
