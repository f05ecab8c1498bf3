"""Small BERT-style encoder with an MLM head, in plain numpy.

Forward and backward passes are hand-written; the backward path only
runs the output head at the masked positions, which is where nearly all
of the vocabulary-projection cost lives. Every encoder linear layer, and
each of its gradient products, is one 2-D GEMM over all B * L rows of a
batch. Everything is deterministic given (config, seed, inputs) at a
fixed BLAS thread count.
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


def _split_heads(x, B, L, heads):
    """[B * L, H] -> [B, heads, L, H // heads] view."""
    return x.reshape(B, L, heads, -1).transpose(0, 2, 1, 3)


def _merge_heads(x):
    """[B, heads, L, dh] -> contiguous [B * L, heads * dh]."""
    B, nh, L, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B * L, nh * dh)


def _linear(x, w, b):
    """x @ w + b as one GEMM, with the bias added in place."""
    y = x @ w
    y += b
    return y


def encode(params, cfg: ModelConfig, token_ids, pad_mask):
    """Run the embedding and encoder stack; returns hidden states [B, L, H] and cache.

    Activations are kept as [B * L, features]; each linear layer is one
    [B * L, n] @ w GEMM, and the attention core works on per-head views
    of them.
    """
    B, L = token_ids.shape
    H, nh = cfg.hidden_dim, cfg.heads
    dt = cfg.np_dtype
    scale = dt(1.0 / math.sqrt(H // nh))
    attn_bias = np.where(pad_mask[:, None, None, :], dt(ATTN_NEG), dt(0.0))

    emb = params["tok_emb"][token_ids]
    emb += params["pos_emb"][:L]
    x, emb_ln = layernorm(emb.reshape(B * L, H), params["emb_ln_g"], params["emb_ln_b"])
    cache = {"token_ids": token_ids, "emb_ln": emb_ln, "layers": []}
    for i in range(cfg.layers):
        p = f"l{i}_"
        x_in = x
        q = _split_heads(_linear(x, params[p + "wq"], params[p + "bq"]), B, L, nh)
        k = _split_heads(_linear(x, params[p + "wk"], params[p + "bk"]), B, L, nh)
        v = _split_heads(_linear(x, params[p + "wv"], params[p + "bv"]), B, L, nh)
        attn = np.matmul(q, k.transpose(0, 1, 3, 2))
        attn *= scale
        attn += attn_bias
        attn -= attn.max(axis=-1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        ctx = _merge_heads(np.matmul(attn, v))
        r1 = _linear(ctx, params[p + "wo"], params[p + "bo"])
        r1 += x_in
        x1, ln1 = layernorm(r1, params[p + "ln1_g"], params[p + "ln1_b"])
        ff_pre = _linear(x1, params[p + "w1"], params[p + "b1"])
        ff_act, ff_tanh = gelu_cached(ff_pre)
        r2 = _linear(ff_act, params[p + "w2"], params[p + "b2"])
        r2 += x1
        x, ln2 = layernorm(r2, params[p + "ln2_g"], params[p + "ln2_b"])
        cache["layers"].append(
            {"x_in": x_in, "q": q, "k": k, "v": v, "attn": attn, "ctx": ctx,
             "ln1": ln1, "x1": x1, "ff_pre": ff_pre, "ff_act": ff_act,
             "ff_tanh": ff_tanh, "ln2": ln2}
        )
    return x.reshape(B, L, H), cache


def _head(params, cfg: ModelConfig, h):
    """MLM head on a [N, H] slab of hidden states -> logits [N, V]."""
    t_pre = _linear(h, params["head_w"], params["head_b"])
    t_act, t_tanh = gelu_cached(t_pre)
    t_out, head_ln = layernorm(t_act, params["head_ln_g"], params["head_ln_b"])
    out_w = params["tok_emb"].T if cfg.tied else params["out_w"]
    logits = _linear(t_out, out_w, params["out_bias"])
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
    grads["out_bias"] = dlogits.sum(axis=0)
    d_tpre, grads["head_ln_g"], grads["head_ln_b"] = layernorm_backward(
        d_tout, params["head_ln_g"], hc["head_ln"]
    )
    d_tpre *= gelu_grad(hc["t_pre"], hc["t_tanh"])
    grads["head_w"] = hc["h"].T @ d_tpre
    grads["head_b"] = d_tpre.sum(axis=0)

    token_ids = cache["token_ids"]
    B, L = token_ids.shape
    H, nh = cfg.hidden_dim, cfg.heads
    dt = cfg.np_dtype
    scale = dt(1.0 / math.sqrt(H // nh))
    dx = np.zeros((B, L, H), dtype=dt)
    dx[cache["mrows"], cache["mcols"]] = d_tpre @ params["head_w"].T
    dx = dx.reshape(B * L, H)
    for i in reversed(range(cfg.layers)):
        p = f"l{i}_"
        lc = cache["layers"][i]
        # each layernorm_backward overwrites its input; the residual
        # gradients are accumulated in place once their last reader is done
        d_x1, grads[p + "ln2_g"], grads[p + "ln2_b"] = layernorm_backward(
            dx, params[p + "ln2_g"], lc["ln2"]
        )
        grads[p + "w2"] = lc["ff_act"].T @ d_x1
        grads[p + "b2"] = d_x1.sum(axis=0)
        d_ffpre = d_x1 @ params[p + "w2"].T
        d_ffpre *= gelu_grad(lc["ff_pre"], lc["ff_tanh"])
        grads[p + "w1"] = lc["x1"].T @ d_ffpre
        grads[p + "b1"] = d_ffpre.sum(axis=0)
        d_x1 += d_ffpre @ params[p + "w1"].T
        dx, grads[p + "ln1_g"], grads[p + "ln1_b"] = layernorm_backward(
            d_x1, params[p + "ln1_g"], lc["ln1"]
        )
        grads[p + "wo"] = lc["ctx"].T @ dx
        grads[p + "bo"] = dx.sum(axis=0)
        d_ctx = _split_heads(dx @ params[p + "wo"].T, B, L, nh)
        attn = lc["attn"]
        d_scores = np.matmul(d_ctx, lc["v"].transpose(0, 1, 3, 2))
        d_v = np.matmul(attn.transpose(0, 1, 3, 2), d_ctx)
        d_scores -= (d_scores * attn).sum(axis=-1, keepdims=True)
        d_scores *= attn
        d_q = np.matmul(d_scores, lc["k"])
        d_q *= scale
        d_k = np.matmul(d_scores.transpose(0, 1, 3, 2), lc["q"])
        d_k *= scale
        for name, dh in (("q", d_q), ("k", d_k), ("v", d_v)):
            d_flat = _merge_heads(dh)
            grads[p + "w" + name] = lc["x_in"].T @ d_flat
            grads[p + "b" + name] = d_flat.sum(axis=0)
            dx += d_flat @ params[p + "w" + name].T

    d_emb, grads["emb_ln_g"], grads["emb_ln_b"] = layernorm_backward(
        dx, params["emb_ln_g"], cache["emb_ln"]
    )
    d_emb = d_emb.reshape(B, L, H)
    d_pos = np.zeros_like(params["pos_emb"])
    d_pos[:L] = d_emb.sum(axis=0)
    grads["pos_emb"] = d_pos
    d_tok = np.zeros_like(params["tok_emb"])
    np.add.at(d_tok, token_ids, d_emb)
    if cfg.tied:  # the output projection's gradient, in tok_emb's [V, H] layout
        d_tok += dlogits.T @ hc["t_out"]
    else:
        grads["out_w"] = hc["t_out"].T @ dlogits
    grads["tok_emb"] = d_tok
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

