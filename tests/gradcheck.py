"""Central finite-difference check of the analytic gradients."""

from __future__ import annotations

import numpy as np

from tvmask.model.net import (
    ModelConfig,
    backward_masked,
    forward_masked,
    init_params,
    nll_from_logits,
    softmax_xent,
)

TINY_CONFIG = ModelConfig(
    layers=2, hidden_dim=8, heads=2, ff_dim=16, vocab_size=20, L_seq=6,
    dtype="float64",
)


def _make_case(cfg: ModelConfig, seed: int):
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x6C]))
    B = 3
    token_ids = rng.integers(0, cfg.vocab_size, size=(B, cfg.L_seq))
    pad_mask = np.zeros((B, cfg.L_seq), dtype=bool)
    pad_mask[0, -2:] = True  # exercise the attention-mask path
    mrows, mcols = [], []
    for b in range(B):
        cols = rng.choice(cfg.L_seq - 2, size=2, replace=False)
        mrows.extend([b, b])
        mcols.extend(cols.tolist())
    mrows = np.asarray(mrows)
    mcols = np.asarray(mcols)
    labels = rng.integers(0, cfg.vocab_size, size=mrows.shape[0])
    return token_ids, pad_mask, mrows, mcols, labels


def _loss(params, cfg, case):
    token_ids, pad_mask, mrows, mcols, labels = case
    logits, _ = forward_masked(params, cfg, token_ids, pad_mask, mrows, mcols)
    return float(nll_from_logits(logits, labels).mean())


def grad_check(cfg: ModelConfig = TINY_CONFIG, seed: int = 0, n_samples: int = 220,
               h: float = 1e-3, perturb: bool = False) -> float:
    """Max relative error between analytic and central-difference gradients.

    Samples n_samples coordinates across all parameter tensors (at least
    two per tensor). ``perturb=True`` corrupts the analytic gradients so
    a broken backward pass is visibly detected (negative control).
    """
    if cfg.dtype != "float64":
        raise ValueError("gradient checking needs float64 parameters")
    params = init_params(cfg, seed)
    case = _make_case(cfg, seed)
    token_ids, pad_mask, mrows, mcols, labels = case
    logits, cache = forward_masked(params, cfg, token_ids, pad_mask, mrows, mcols)
    grads = backward_masked(params, cfg, cache, softmax_xent(logits, labels)[1])
    if perturb:
        grads = {k: v * 1.5 for k, v in grads.items()}

    names = sorted(params)
    sizes = np.array([params[n].size for n in names])
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xFD]))
    coords: list[tuple[str, int]] = []
    for n in names:  # coverage: every tensor gets probed
        coords.append((n, int(rng.integers(params[n].size))))
        coords.append((n, int(rng.integers(params[n].size))))
    total = int(sizes.sum())
    while len(coords) < n_samples:
        flat = int(rng.integers(total))
        i = int(np.searchsorted(np.cumsum(sizes), flat, side="right"))
        coords.append((names[i], flat - int(np.cumsum(sizes)[i - 1]) if i else flat))

    max_rel = 0.0
    for name, idx in coords:
        p = params[name]
        orig = p.flat[idx]
        # fourth-order central stencil: kills the h^2 truncation term that
        # would otherwise dominate near the GELU's curvy regions
        vals = []
        for d in (2.0 * h, h, -h, -2.0 * h):
            p.flat[idx] = orig + d
            vals.append(_loss(params, cfg, case))
        p.flat[idx] = orig
        fd = (-vals[0] + 8.0 * vals[1] - 8.0 * vals[2] + vals[3]) / (12.0 * h)
        an = grads[name].flat[idx]
        rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
        max_rel = max(max_rel, rel)
    return max_rel
