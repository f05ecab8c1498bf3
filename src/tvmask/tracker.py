"""Per-category smoothed losses and the masking-weight vector derived from them.

The tracker keeps one exponentially-weighted cumulative loss per POS
category, updated as

    cum[k] <- beta * cum[k] + (1 - beta) * batch_loss[k]

with no bias correction, so values grow from zero and the weight vector
starts uniform at 0.5. Weights standardize the cumulative losses across
categories (population mean/variance), divide by the temperature mu and
pass the result through a logistic sigmoid, so harder categories get
masked more often.
"""

from __future__ import annotations

import math

import numpy as np

from tvmask.postags import N_CATEGORIES

VAR_EPS = 1e-12  # below this the losses are treated as all-equal


class CategoryLossTracker:
    """EMA tracker of per-category losses."""

    def __init__(self, beta: float = 0.99, mu: float = 1.0):
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {beta}")
        if not mu > 0.0:  # NaN fails too
            raise ValueError(f"mu must be > 0, got {mu}")
        # population z-scores of the categories satisfy |z| <= sqrt(N - 1); the
        # lowest possible weight must not underflow to 0, or its positions
        # become unmaskable mid-run
        if sigmoid(np.array([-math.sqrt(N_CATEGORIES - 1) / mu]))[0] == 0.0:
            raise ValueError(f"mu = {mu} underflows the lowest masking weight to 0")
        self.beta = beta
        self.mu = mu
        self.cum_loss = np.zeros(N_CATEGORIES, dtype=np.float64)

    def update(self, batch_losses: np.ndarray) -> None:
        """Fold one batch's per-category losses into the EMA.

        ``batch_losses`` has one entry per category; NaN marks a category
        absent from the batch, whose cumulative loss is left unchanged.
        """
        losses = np.asarray(batch_losses, dtype=np.float64)
        if losses.shape != (N_CATEGORIES,):
            raise ValueError(f"expected {N_CATEGORIES} losses, got shape {losses.shape}")
        present = ~np.isnan(losses)
        if np.any(losses[present] < 0.0):
            raise ValueError("per-category losses must be >= 0")
        self.cum_loss[present] = (
            self.beta * self.cum_loss[present] + (1.0 - self.beta) * losses[present]
        )

    def weights(self) -> np.ndarray:
        """Masking-weight vector in (0, 1); uniform 0.5 when losses carry no spread."""
        return weights_from_losses(self.cum_loss, self.mu)


def weights_from_losses(cum_loss: np.ndarray, mu: float = 1.0) -> np.ndarray:
    """Standardize across categories, temper by mu, squash with a sigmoid.

    Population variance is used: the categories are the whole population,
    not a sample from one.
    """
    cum = np.asarray(cum_loss, dtype=np.float64)
    var = np.var(cum)
    if var < VAR_EPS:
        return np.full(cum.shape, 0.5)
    z = (cum - np.mean(cum)) / (np.sqrt(var) * mu)
    return sigmoid(z)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # split by sign to stay overflow-free for large |x|
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
