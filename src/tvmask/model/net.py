"""Small BERT-style encoder with an MLM head, in plain numpy.

Forward and backward passes are hand-written; the backward path only
runs the output head at the masked positions, which is where nearly all
of the vocabulary-projection cost lives. Everything is deterministic
given (config, seed, inputs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tvmask.postags import N_CATEGORIES

LN_EPS = 1e-5
ATTN_NEG = -1e9  # additive bias that zeroes attention to padding

_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715


@dataclass(frozen=True)
class ModelConfig:
    layers: int = 2
    hidden_dim: int = 128
    heads: int = 2
    ff_dim: int = 512
    vocab_size: int = 8192
    L_seq: int = 128
    tied: bool = True
    dtype: str = "float32"

    def __post_init__(self):
        for name in ("layers", "hidden_dim", "heads", "ff_dim", "vocab_size", "L_seq"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.hidden_dim % self.heads != 0:
            raise ValueError("hidden_dim must be divisible by heads")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unsupported dtype {self.dtype}")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


def init_params(cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x10D3]))
    dt = cfg.np_dtype
    H, F, V, L = cfg.hidden_dim, cfg.ff_dim, cfg.vocab_size, cfg.L_seq

    def normal(*shape):
        return (rng.standard_normal(shape) * 0.02).astype(dt)

    params = {
        "tok_emb": normal(V, H),
        "pos_emb": normal(L, H),
        "emb_ln_g": np.ones(H, dtype=dt),
        "emb_ln_b": np.zeros(H, dtype=dt),
        "head_w": normal(H, H),
        "head_b": np.zeros(H, dtype=dt),
        "head_ln_g": np.ones(H, dtype=dt),
        "head_ln_b": np.zeros(H, dtype=dt),
        "out_bias": np.zeros(V, dtype=dt),
    }
    if not cfg.tied:
        params["out_w"] = normal(H, V)
    for i in range(cfg.layers):
        p = f"l{i}_"
        params[p + "wq"] = normal(H, H)
        params[p + "bq"] = np.zeros(H, dtype=dt)
        params[p + "wk"] = normal(H, H)
        params[p + "bk"] = np.zeros(H, dtype=dt)
        params[p + "wv"] = normal(H, H)
        params[p + "bv"] = np.zeros(H, dtype=dt)
        params[p + "wo"] = normal(H, H)
        params[p + "bo"] = np.zeros(H, dtype=dt)
        params[p + "ln1_g"] = np.ones(H, dtype=dt)
        params[p + "ln1_b"] = np.zeros(H, dtype=dt)
        params[p + "w1"] = normal(H, F)
        params[p + "b1"] = np.zeros(F, dtype=dt)
        params[p + "w2"] = normal(F, H)
        params[p + "b2"] = np.zeros(H, dtype=dt)
        params[p + "ln2_g"] = np.ones(H, dtype=dt)
        params[p + "ln2_b"] = np.zeros(H, dtype=dt)
    return params


def gelu_cached(x):
    """GELU (tanh form) plus the tanh itself, cached for the backward pass."""
    x2 = x * x
    inner = _GELU_K * (x + _GELU_C * (x2 * x))
    t = np.tanh(inner)
    return 0.5 * x * (1.0 + t), t


def gelu_grad(x, t=None):
    """d gelu / dx; pass the cached tanh to skip recomputing it."""
    x2 = x * x
    if t is None:
        t = np.tanh(_GELU_K * (x + _GELU_C * (x2 * x)))
    return 0.5 * (1.0 + t) + (0.5 * _GELU_K) * x * (1.0 - t * t) * (1.0 + (3.0 * _GELU_C) * x2)


def layernorm(x, g, b):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv_std
    return xhat * g + b, (xhat, inv_std)


def layernorm_backward(dy, g, cache):
    xhat, inv_std = cache
    last = dy.shape[-1]
    dg = (dy * xhat).reshape(-1, last).sum(axis=0)
    db = dy.reshape(-1, last).sum(axis=0)
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = (dxhat - m1 - xhat * m2) * inv_std
    return dx, dg, db


def _split_heads(x, heads):
    B, L, H = x.shape
    return x.reshape(B, L, heads, H // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    B, nh, L, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, L, nh * dh)


def encode(params, cfg: ModelConfig, token_ids, pad_mask):
    """Run the embedding and encoder stack; returns hidden states and cache."""
    B, L = token_ids.shape
    dt = cfg.np_dtype
    scale = 1.0 / math.sqrt(cfg.hidden_dim // cfg.heads)
    attn_bias = np.where(pad_mask[:, None, None, :], dt(ATTN_NEG), dt(0.0))

    emb = params["tok_emb"][token_ids] + params["pos_emb"][None, :L, :]
    x, emb_ln = layernorm(emb, params["emb_ln_g"], params["emb_ln_b"])
    cache = {"token_ids": token_ids, "emb_ln": emb_ln, "attn_bias": attn_bias, "layers": []}
    for i in range(cfg.layers):
        p = f"l{i}_"
        x_in = x
        q = _split_heads(x @ params[p + "wq"] + params[p + "bq"], cfg.heads)
        k = _split_heads(x @ params[p + "wk"] + params[p + "bk"], cfg.heads)
        v = _split_heads(x @ params[p + "wv"] + params[p + "bv"], cfg.heads)
        scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * dt(scale) + attn_bias
        scores -= scores.max(axis=-1, keepdims=True)
        attn = np.exp(scores)
        attn /= attn.sum(axis=-1, keepdims=True)
        ctx = _merge_heads(np.matmul(attn, v))
        attn_out = ctx @ params[p + "wo"] + params[p + "bo"]
        x1, ln1 = layernorm(x_in + attn_out, params[p + "ln1_g"], params[p + "ln1_b"])
        ff_pre = x1 @ params[p + "w1"] + params[p + "b1"]
        ff_act, ff_tanh = gelu_cached(ff_pre)
        ff_out = ff_act @ params[p + "w2"] + params[p + "b2"]
        x, ln2 = layernorm(x1 + ff_out, params[p + "ln2_g"], params[p + "ln2_b"])
        cache["layers"].append(
            {"x_in": x_in, "q": q, "k": k, "v": v, "attn": attn, "ctx": ctx,
             "ln1": ln1, "x1": x1, "ff_pre": ff_pre, "ff_act": ff_act,
             "ff_tanh": ff_tanh, "ln2": ln2}
        )
    cache["hidden"] = x
    return x, cache


def _head(params, cfg: ModelConfig, h):
    """MLM head on a [N, H] slab of hidden states -> logits [N, V]."""
    t_pre = h @ params["head_w"] + params["head_b"]
    t_act, t_tanh = gelu_cached(t_pre)
    t_out, head_ln = layernorm(t_act, params["head_ln_g"], params["head_ln_b"])
    out_w = params["tok_emb"].T if cfg.tied else params["out_w"]
    logits = t_out @ out_w + params["out_bias"]
    return logits, {"h": h, "t_pre": t_pre, "t_tanh": t_tanh, "t_out": t_out, "head_ln": head_ln}


def forward_masked(params, cfg: ModelConfig, token_ids, pad_mask, mrows, mcols):
    """Logits only at the masked positions (mrows[i], mcols[i])."""
    hidden, cache = encode(params, cfg, token_ids, pad_mask)
    logits, head_cache = _head(params, cfg, hidden[mrows, mcols])
    cache["head"] = head_cache
    cache["mrows"], cache["mcols"] = mrows, mcols
    return logits, cache


def backward_masked(params, cfg: ModelConfig, cache, dlogits):
    """Gradients of a scalar with given dlogits at the masked positions."""
    grads = {name: None for name in params}
    hc = cache["head"]
    out_w = params["tok_emb"].T if cfg.tied else params["out_w"]
    d_tout = dlogits @ out_w.T
    d_outw = hc["t_out"].T @ dlogits
    grads["out_bias"] = dlogits.sum(axis=0)
    d_tact, grads["head_ln_g"], grads["head_ln_b"] = layernorm_backward(
        d_tout, params["head_ln_g"], hc["head_ln"]
    )
    d_tpre = d_tact * gelu_grad(hc["t_pre"], hc["t_tanh"])
    grads["head_w"] = hc["h"].T @ d_tpre
    grads["head_b"] = d_tpre.sum(axis=0)
    d_hidden_masked = d_tpre @ params["head_w"].T

    dx = np.zeros_like(cache["hidden"])
    dx[cache["mrows"], cache["mcols"]] = d_hidden_masked

    dt = cfg.np_dtype
    scale = dt(1.0 / math.sqrt(cfg.hidden_dim // cfg.heads))
    B, L, H = dx.shape
    for i in reversed(range(cfg.layers)):
        p = f"l{i}_"
        lc = cache["layers"][i]
        d_r2, grads[p + "ln2_g"], grads[p + "ln2_b"] = layernorm_backward(
            dx, params[p + "ln2_g"], lc["ln2"]
        )
        d_x1 = d_r2.copy()
        flat_r2 = d_r2.reshape(-1, H)
        grads[p + "w2"] = lc["ff_act"].reshape(-1, cfg.ff_dim).T @ flat_r2
        grads[p + "b2"] = flat_r2.sum(axis=0)
        d_ffpre = (d_r2 @ params[p + "w2"].T) * gelu_grad(lc["ff_pre"], lc["ff_tanh"])
        grads[p + "w1"] = lc["x1"].reshape(-1, H).T @ d_ffpre.reshape(-1, cfg.ff_dim)
        grads[p + "b1"] = d_ffpre.reshape(-1, cfg.ff_dim).sum(axis=0)
        d_x1 += d_ffpre @ params[p + "w1"].T
        d_r1, grads[p + "ln1_g"], grads[p + "ln1_b"] = layernorm_backward(
            d_x1, params[p + "ln1_g"], lc["ln1"]
        )
        dx = d_r1.copy()
        flat_r1 = d_r1.reshape(-1, H)
        grads[p + "wo"] = lc["ctx"].reshape(-1, H).T @ flat_r1
        grads[p + "bo"] = flat_r1.sum(axis=0)
        d_ctx = _split_heads(d_r1 @ params[p + "wo"].T, cfg.heads)
        d_attn = np.matmul(d_ctx, lc["v"].transpose(0, 1, 3, 2))
        d_v = np.matmul(lc["attn"].transpose(0, 1, 3, 2), d_ctx)
        attn = lc["attn"]
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        d_q = np.matmul(d_scores, lc["k"]) * scale
        d_k = np.matmul(d_scores.transpose(0, 1, 3, 2), lc["q"]) * scale
        x_in_flat = lc["x_in"].reshape(-1, H)
        for name, dh in (("q", d_q), ("k", d_k), ("v", d_v)):
            d_flat = _merge_heads(dh).reshape(-1, H)
            grads[p + "w" + name] = x_in_flat.T @ d_flat
            grads[p + "b" + name] = d_flat.sum(axis=0)
            dx += (d_flat @ params[p + "w" + name].T).reshape(B, L, H)

    d_emb, grads["emb_ln_g"], grads["emb_ln_b"] = layernorm_backward(
        dx, params["emb_ln_g"], cache["emb_ln"]
    )
    d_pos = np.zeros_like(params["pos_emb"])
    d_pos[:L] = d_emb.sum(axis=0)
    grads["pos_emb"] = d_pos
    d_tok = np.zeros_like(params["tok_emb"])
    np.add.at(d_tok, cache["token_ids"], d_emb)
    if cfg.tied:
        d_tok += d_outw.T
    else:
        grads["out_w"] = d_outw
    grads["tok_emb"] = d_tok
    return grads


def nll_from_logits(logits, labels):
    """Per-token negative log-likelihood (float64) from unnormalized logits [M, V].

    exp/sum stay in the model dtype (the expensive part); the final NLL
    is assembled in float64 so downstream reductions are stable.
    """
    m = logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(logits - m).sum(axis=-1, dtype=np.float64)) + m[:, 0].astype(np.float64)
    picked = logits[np.arange(labels.shape[0]), labels].astype(np.float64)
    return lse - picked


def dloss_dlogits(logits, labels):
    """Gradient of the mean masked NLL w.r.t. the logits, in model dtype."""
    M = labels.shape[0]
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    probs = e / e.sum(axis=-1, keepdims=True)
    probs[np.arange(M), labels] -= 1.0
    return probs / M


def per_category_losses(nll, pos_ids, mode="per-token-mean", n_categories=N_CATEGORIES):
    """Aggregate per-token losses into a per-category vector; NaN = absent.

    per-token-mean: mean loss over the category's masked tokens.
    batch-share: category's summed loss over the total masked count, so
    the vector sums exactly to the batch mean loss.
    """
    if mode not in ("per-token-mean", "batch-share"):
        raise ValueError(f"unknown loss mode {mode!r}")
    out = np.full(n_categories, np.nan)
    total = nll.shape[0]
    if total == 0:
        raise ValueError("no masked tokens to aggregate")
    sums = np.zeros(n_categories)
    counts = np.zeros(n_categories, dtype=np.int64)
    np.add.at(sums, pos_ids, nll)
    np.add.at(counts, pos_ids, 1)
    present = counts > 0
    if mode == "per-token-mean":
        out[present] = sums[present] / counts[present]
    else:
        out[present] = sums[present] / total
    return out

