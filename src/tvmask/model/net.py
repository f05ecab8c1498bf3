"""Small BERT-style encoder with an MLM head, in plain numpy.

Forward and backward passes are hand-written, and both run only what the
MLM loss reads. The output head, where nearly all of the vocabulary
projection's cost lives, runs at the masked positions alone. So does the
last encoder layer, apart from its key and value projections, which
every query of a sequence attends to. Every other encoder linear layer,
and each of its gradient products, is one 2-D GEMM over all B * L rows
of a batch. Everything is deterministic given (config, seed, inputs) at
a fixed BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tvmask.postags import N_CATEGORIES

LN_EPS = 1e-5
ATTN_NEG = -1e9  # additive bias that zeroes attention to padding
LOSS_MODES = ("per-token-mean", "batch-share")  # see per_category_losses

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
    """GELU (tanh form) plus the tanh itself, cached for the backward pass.

    x is left unchanged. Every step rounds as in
    ``0.5 * x * (1 + tanh(k * (x + c * (x * x * x))))``.
    """
    t = x * x
    t *= x
    t *= _GELU_C
    t += x
    t *= _GELU_K
    np.tanh(t, out=t)
    y = x * 0.5
    y *= t + 1.0
    return y, t


def gelu_grad(x, t):
    """d gelu / dx from the tanh cached by gelu_cached.

    Rounds as ``0.5 * (1 + t) + (0.5 * k) * x * (1 - t * t) * (1 + (3 * c) * x * x)``.
    """
    a = x * (0.5 * _GELU_K)
    b = t * t
    np.subtract(1.0, b, out=b)
    a *= b
    np.multiply(x, x, out=b)
    b *= 3.0 * _GELU_C
    b += 1.0
    a *= b
    np.add(t, 1.0, out=b)
    b *= 0.5
    b += a
    return b


def layernorm(x, g, b):
    """Normalise over the last axis; returns (y, (xhat, inv_std)) and leaves x unchanged."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    y = xhat * xhat
    inv_std = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + LN_EPS)
    xhat *= inv_std
    np.multiply(xhat, g, out=y)
    y += b
    return y, (xhat, inv_std)


def layernorm_backward(dy, g, cache):
    """Returns (dx, dg, db); dx is written over dy, which the caller no longer needs."""
    xhat, inv_std = cache
    last = dy.shape[-1]
    tmp = dy * xhat
    dg = tmp.reshape(-1, last).sum(axis=0)
    db = dy.reshape(-1, last).sum(axis=0)
    dx = dy
    dx *= g
    m1 = dx.mean(axis=-1, keepdims=True)
    np.multiply(dx, xhat, out=tmp)
    m2 = tmp.mean(axis=-1, keepdims=True)
    dx -= m1
    np.multiply(xhat, m2, out=tmp)
    dx -= tmp
    dx *= inv_std
    return dx, dg, db


def _heads(x, heads):
    """[N, H] -> [heads, N, H // heads] view; sequence b's rows stay one slice."""
    N = x.shape[0]
    return x.reshape(N, heads, -1).transpose(1, 0, 2)


def _linear(x, w, b):
    """x @ w + b as one GEMM, with the bias added in place."""
    y = x @ w
    y += b
    return y


def _segments(bounds, L):
    """(query slice, key slice) of each sequence: its query rows are
    bounds[b]:bounds[b + 1], its keys the L rows from b * L."""
    return [(slice(lo, hi), slice(b * L, (b + 1) * L))
            for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))]


def _layer(params, p, cfg: ModelConfig, x, rows, segments, attn_bias):
    """One encoder layer on x [B * L, H], with queries only at the flat rows ``rows``.

    Each sequence's queries attend to all L of its rows (see _segments).
    Everything after the attention is position-wise, so the layer's
    output exists only at the query rows: returns (y [len(x[rows]), H], cache).
    """
    nh = cfg.heads
    scale = cfg.np_dtype(1.0 / math.sqrt(cfg.hidden_dim // nh))
    x_q = x[rows]
    q = _heads(_linear(x_q, params[p + "wq"], params[p + "bq"]), nh)
    k = _heads(_linear(x, params[p + "wk"], params[p + "bk"]), nh)
    v = _heads(_linear(x, params[p + "wv"], params[p + "bv"]), nh)
    attn = np.empty((nh, x_q.shape[0], attn_bias.shape[1]), dtype=x.dtype)
    for (qs, ks), bias in zip(segments, attn_bias):
        s = attn[:, qs]
        np.matmul(q[:, qs], k[:, ks].transpose(0, 2, 1), out=s)
        s *= scale
        s += bias
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    ctx = np.empty_like(x_q)
    for qs, ks in segments:
        np.matmul(attn[:, qs], v[:, ks], out=_heads(ctx, nh)[:, qs])
    r1 = _linear(ctx, params[p + "wo"], params[p + "bo"])
    r1 += x_q
    x1, ln1 = layernorm(r1, params[p + "ln1_g"], params[p + "ln1_b"])
    ff_pre = _linear(x1, params[p + "w1"], params[p + "b1"])
    ff_act, ff_tanh = gelu_cached(ff_pre)
    r2 = _linear(ff_act, params[p + "w2"], params[p + "b2"])
    r2 += x1
    y, ln2 = layernorm(r2, params[p + "ln2_g"], params[p + "ln2_b"])
    return y, {"x_in": x, "x_q": x_q, "rows": rows, "segments": segments, "q": q, "k": k,
               "v": v, "attn": attn, "ctx": ctx, "ln1": ln1, "x1": x1, "ff_pre": ff_pre,
               "ff_act": ff_act, "ff_tanh": ff_tanh, "ln2": ln2}


def encode(params, cfg: ModelConfig, token_ids, pad_mask, mrows, mcols):
    """Final hidden states [M, H] at the masked positions (mrows[i], mcols[i]), and the cache.

    Activations are kept as [rows, features], and each linear layer is one
    GEMM over its rows. The layers below the last run on all B * L rows.
    The last one needs keys and values from every row, but its queries and
    everything after them only at the M masked rows, the only ones the
    head reads. mrows must be non-decreasing, so that each sequence's
    masked rows are one slice.
    """
    B, L = token_ids.shape
    H = cfg.hidden_dim
    dt = cfg.np_dtype
    mrows = np.asarray(mrows)
    if np.any(mrows[1:] < mrows[:-1]):
        raise ValueError("mrows must be non-decreasing")
    masked = np.ravel_multi_index((mrows, mcols), (B, L))
    queries = ([(slice(None), _segments(np.arange(B + 1) * L, L))] * (cfg.layers - 1)
               + [(masked, _segments(np.searchsorted(mrows, np.arange(B + 1)), L))])
    attn_bias = np.where(pad_mask, dt(ATTN_NEG), dt(0.0))

    emb = params["tok_emb"][token_ids]
    emb += params["pos_emb"][:L]
    x, emb_ln = layernorm(emb.reshape(B * L, H), params["emb_ln_g"], params["emb_ln_b"])
    cache = {"token_ids": token_ids, "emb_ln": emb_ln, "layers": []}
    for i, (rows, segments) in enumerate(queries):
        x, layer_cache = _layer(params, f"l{i}_", cfg, x, rows, segments, attn_bias)
        cache["layers"].append(layer_cache)
    return x, cache


def _head(params, h):
    """MLM head on a [N, H] slab of hidden states -> logits [N, V]."""
    t_pre = _linear(h, params["head_w"], params["head_b"])
    t_act, t_tanh = gelu_cached(t_pre)
    t_out, head_ln = layernorm(t_act, params["head_ln_g"], params["head_ln_b"])
    logits = _linear(t_out, params["tok_emb"].T, params["out_bias"])
    return logits, {"h": h, "t_pre": t_pre, "t_tanh": t_tanh, "t_out": t_out, "head_ln": head_ln}


def forward_masked(params, cfg: ModelConfig, token_ids, pad_mask, mrows, mcols):
    """Logits only at the masked positions (mrows[i], mcols[i]); mrows must be non-decreasing."""
    hidden, cache = encode(params, cfg, token_ids, pad_mask, mrows, mcols)
    logits, cache["head"] = _head(params, hidden)
    cache["mrows"] = mrows  # read by perfbench's backward FLOP counter
    return logits, cache


def _linear_grads(grads, w, b, x, dy):
    """Write the gradients of w and b in y = x @ w + b, given dy, into grads' arrays."""
    np.matmul(x.T, dy, out=grads[w])
    dy.sum(axis=0, out=grads[b])


def _layernorm_grads(params, grads, name, dy, cache):
    """layernorm_backward, writing the gain's and bias's gradients into grads' arrays."""
    dx, grads[name + "_g"][...], grads[name + "_b"][...] = layernorm_backward(
        dy, params[name + "_g"], cache)
    return dx


def _layer_backward(params, p, cfg: ModelConfig, lc, dy, grads):
    """Backward of _layer: dy [len(query rows), H] -> gradient at its input [B * L, H].

    Writes the layer's entries of grads in place. The residual and q
    paths reach only the query rows; the k and v paths reach every row.
    """
    nh = cfg.heads
    x_in, x_q, segments = lc["x_in"], lc["x_q"], lc["segments"]
    scale = cfg.np_dtype(1.0 / math.sqrt(cfg.hidden_dim // nh))
    # each layernorm_backward overwrites its input; the residual
    # gradients are accumulated in place once their last reader is done
    d_x1 = _layernorm_grads(params, grads, p + "ln2", dy, lc["ln2"])
    _linear_grads(grads, p + "w2", p + "b2", lc["ff_act"], d_x1)
    d_ffpre = d_x1 @ params[p + "w2"].T
    d_ffpre *= gelu_grad(lc["ff_pre"], lc["ff_tanh"])
    _linear_grads(grads, p + "w1", p + "b1", lc["x1"], d_ffpre)
    d_x1 += d_ffpre @ params[p + "w1"].T
    d_r1 = _layernorm_grads(params, grads, p + "ln1", d_x1, lc["ln1"])
    _linear_grads(grads, p + "wo", p + "bo", lc["ctx"], d_r1)
    d_ctx = _heads(d_r1 @ params[p + "wo"].T, nh)
    attn, q, k, v = lc["attn"], lc["q"], lc["k"], lc["v"]
    d_scores = np.empty_like(attn)
    d_q, d_k, d_v = np.empty_like(x_q), np.empty_like(x_in), np.empty_like(x_in)
    for qs, ks in segments:
        np.matmul(d_ctx[:, qs], v[:, ks].transpose(0, 2, 1), out=d_scores[:, qs])
        np.matmul(attn[:, qs].transpose(0, 2, 1), d_ctx[:, qs], out=_heads(d_v, nh)[:, ks])
    d_scores -= (d_scores * attn).sum(axis=-1, keepdims=True)
    d_scores *= attn
    for qs, ks in segments:
        np.matmul(d_scores[:, qs], k[:, ks], out=_heads(d_q, nh)[:, qs])
        np.matmul(d_scores[:, qs].transpose(0, 2, 1), q[:, qs], out=_heads(d_k, nh)[:, ks])
    d_q *= scale
    d_k *= scale
    for name, x, d_flat in (("q", x_q, d_q), ("k", x_in, d_k), ("v", x_in, d_v)):
        _linear_grads(grads, p + "w" + name, p + "b" + name, x, d_flat)
    d_r1 += d_q @ params[p + "wq"].T
    dx = np.zeros_like(x_in)
    dx[lc["rows"]] = d_r1
    dx += d_k @ params[p + "wk"].T
    dx += d_v @ params[p + "wv"].T
    return dx


def backward_masked(params, cfg: ModelConfig, cache, dlogits, out=None):
    """Gradients of a scalar with given dlogits at the masked positions, in params order.

    Overwrites every array of out (shaped like params; out=None makes them) and returns out."""
    grads = {name: np.empty_like(p) for name, p in params.items()} if out is None else out
    hc = cache["head"]
    dlogits.sum(axis=0, out=grads["out_bias"])
    d_tpre = _layernorm_grads(params, grads, "head_ln", dlogits @ params["tok_emb"], hc["head_ln"])
    d_tpre *= gelu_grad(hc["t_pre"], hc["t_tanh"])
    _linear_grads(grads, "head_w", "head_b", hc["h"], d_tpre)

    dx = d_tpre @ params["head_w"].T
    for i in reversed(range(cfg.layers)):
        dx = _layer_backward(params, f"l{i}_", cfg, cache["layers"][i], dx, grads)

    token_ids = cache["token_ids"]
    B, L = token_ids.shape
    d_emb = _layernorm_grads(params, grads, "emb_ln", dx, cache["emb_ln"]).reshape(B, L, -1)
    grads["pos_emb"][L:] = 0
    d_emb.sum(axis=0, out=grads["pos_emb"][:L])
    grads["tok_emb"].fill(0)
    np.add.at(grads["tok_emb"], token_ids, d_emb)
    grads["tok_emb"] += dlogits.T @ hc["t_out"]  # the tied output projection's gradient
    return grads


def _exp_and_nll(logits, labels):
    """exp(logits - row max) in a fresh array, and the per-token NLL in float64.

    exp/sum stay in the model dtype (the expensive part); the final NLL
    is assembled in float64 so downstream reductions are stable.
    """
    m = logits.max(axis=-1, keepdims=True)
    e = logits - m
    np.exp(e, out=e)
    lse = np.log(e.sum(axis=-1, dtype=np.float64)) + m[:, 0].astype(np.float64)
    picked = logits[np.arange(labels.shape[0]), labels].astype(np.float64)
    return e, lse - picked


def nll_from_logits(logits, labels):
    """Per-token negative log-likelihood (float64) from unnormalized logits [M, V].

    The forward-only path, for evaluation; training uses softmax_xent.
    """
    return _exp_and_nll(logits, labels)[1]


def softmax_xent(logits, labels):
    """(nll, dlogits) from one max/exp pass over the logits [M, V].

    nll is nll_from_logits(logits, labels); dlogits is the gradient of
    nll.mean() w.r.t. the logits, in the model dtype. The exponentials
    are normalised in place into dlogits; logits are left unchanged.
    """
    e, nll = _exp_and_nll(logits, labels)
    e /= e.sum(axis=-1, keepdims=True)
    e[np.arange(labels.shape[0]), labels] -= 1.0
    e /= labels.shape[0]
    return nll, e


def per_category_losses(nll, pos_ids, mode="per-token-mean"):
    """Aggregate per-token losses into a per-category vector; NaN = absent.

    per-token-mean: mean loss over the category's masked tokens.
    batch-share: category's summed loss over the total masked count, so
    the vector sums exactly to the batch mean loss.
    """
    if mode not in LOSS_MODES:
        raise ValueError(f"unknown loss mode {mode!r}")
    out = np.full(N_CATEGORIES, np.nan)
    total = nll.shape[0]
    if total == 0:
        raise ValueError("no masked tokens to aggregate")
    sums = np.bincount(pos_ids, weights=nll, minlength=N_CATEGORIES)
    counts = np.bincount(pos_ids, minlength=N_CATEGORIES)
    present = counts > 0
    if mode == "per-token-mean":
        out[present] = sums[present] / counts[present]
    else:
        out[present] = sums[present] / total
    return out

