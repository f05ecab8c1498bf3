import math

import numpy as np
import pytest

from tvmask.model import net
from tvmask.model.net import (
    ModelConfig,
    backward_masked,
    forward_masked,
    gelu_cached,
    gelu_grad,
    init_params,
    layernorm,
    layernorm_backward,
    nll_from_logits,
    per_category_losses,
    softmax_xent,
)
from tvmask.model import optim
from tvmask.model.optim import AdamW, clip_global_norm

from gradcheck import TINY_CONFIG, grad_check

SMALL = ModelConfig(layers=1, hidden_dim=16, heads=2, ff_dim=32, vocab_size=50,
                    L_seq=12, dtype="float64")


def rand_ids(cfg, batch=3, seed=0):
    return np.random.default_rng(seed).integers(0, cfg.vocab_size, size=(batch, cfg.L_seq))


def forward_all(params, cfg, ids):
    """forward_masked with every position selected: logits [B * L, V] in row-major order."""
    B, L = ids.shape
    mrows, mcols = np.repeat(np.arange(B), L), np.tile(np.arange(L), B)
    logits, _ = forward_masked(params, cfg, ids, np.zeros(ids.shape, dtype=bool), mrows, mcols)
    return logits


def test_batch_permutation_permutes_outputs():
    params = init_params(SMALL, 1)
    ids = rand_ids(SMALL, batch=4, seed=3)
    logits = forward_all(params, SMALL, ids).reshape(4, SMALL.L_seq, SMALL.vocab_size)
    perm = np.array([2, 0, 3, 1])
    logits_perm = forward_all(params, SMALL, ids[perm]).reshape(logits.shape)
    np.testing.assert_array_equal(logits_perm, logits[perm])


def test_zero_head_gives_uniform_and_lnV_loss():
    cfg = ModelConfig(layers=1, hidden_dim=16, heads=2, ff_dim=32, vocab_size=50,
                      L_seq=12, dtype="float64")
    params = init_params(cfg, 0)
    params["tok_emb"][:] = 0.0  # the tied output projection
    params["out_bias"][:] = 0.0
    ids = rand_ids(cfg)
    logits = forward_all(params, cfg, ids)
    np.testing.assert_array_equal(logits, 0.0)  # every token equally likely
    nll = nll_from_logits(logits, ids.reshape(-1))
    np.testing.assert_allclose(nll, math.log(cfg.vocab_size), atol=1e-12)
    scalar = per_category_losses(nll, np.zeros(nll.shape, dtype=int))[0]
    assert scalar == pytest.approx(math.log(cfg.vocab_size), abs=1e-9)


def test_mlm_loss_single_token_known_prob():
    # craft normalized logits directly: the true id has probability 0.5
    V = 8
    logits = np.full((1, V), np.log(0.5 / (V - 1)))
    logits[0, 3] = np.log(0.5)
    nll = nll_from_logits(logits, np.array([3]))
    assert nll[0] == pytest.approx(math.log(2.0), abs=1e-12)
    vec = per_category_losses(nll, np.array([0]))  # NOUN
    assert vec[0] == pytest.approx(math.log(2.0), abs=1e-12)
    assert np.all(np.isnan(vec[1:]))


def test_mlm_loss_batch_share_partitions():
    rng = np.random.default_rng(4)
    nll = rng.uniform(0.1, 5.0, size=40)
    pos = rng.integers(0, 17, size=40)
    vec = per_category_losses(nll, pos, mode="batch-share")
    assert np.nansum(vec) == pytest.approx(nll.mean(), abs=1e-9)


def test_mlm_loss_per_token_mean_mode():
    nll = np.array([1.0, 3.0, 5.0])
    pos = np.array([2, 2, 7])
    vec = per_category_losses(nll, pos, mode="per-token-mean")
    assert vec[2] == pytest.approx(2.0)
    assert vec[7] == pytest.approx(5.0)
    assert np.isnan(vec[0])


def test_mlm_loss_empty_mask_errors():
    with pytest.raises(ValueError):
        per_category_losses(np.empty(0), np.empty(0, dtype=int))


def test_grad_check_passes():
    assert grad_check(TINY_CONFIG, seed=0) < 1e-4


def test_grad_check_negative_control():
    assert grad_check(TINY_CONFIG, seed=0, perturb=True) > 1e-2


def test_gradcheck_requires_float64():
    with pytest.raises(ValueError):
        grad_check(ModelConfig(layers=1, hidden_dim=8, heads=2, ff_dim=16,
                               vocab_size=20, L_seq=6, dtype="float32"))


def test_noop_step_with_zero_lr():
    params = init_params(SMALL, 2)
    opt = AdamW(params)
    ids = rand_ids(SMALL)
    mrows = np.array([0, 1]); mcols = np.array([2, 5])
    labels = np.array([7, 9])
    pad = np.zeros(ids.shape, dtype=bool)
    logits, cache = forward_masked(params, SMALL, ids, pad, mrows, mcols)
    loss_before = float(nll_from_logits(logits, labels).mean())
    grads = backward_masked(params, SMALL, cache, softmax_xent(logits, labels)[1])
    opt.step(params, grads, lr=0.0)
    logits2, _ = forward_masked(params, SMALL, ids, pad, mrows, mcols)
    assert float(nll_from_logits(logits2, labels).mean()) == loss_before


def test_clip_global_norm():
    grads = {"a": np.array([3.0, 4.0]), "b": np.zeros(2)}
    norm = clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(grads["a"]) == pytest.approx(1.0)
    grads2 = {"a": np.array([0.3, 0.4])}
    norm2 = clip_global_norm(grads2, 1.0)
    assert norm2 == pytest.approx(0.5)
    np.testing.assert_allclose(grads2["a"], [0.3, 0.4])  # under the cap: untouched


def test_tied_head_shares_embedding():
    cfg = ModelConfig(layers=1, hidden_dim=16, heads=2, ff_dim=32, vocab_size=30,
                      L_seq=8, dtype="float64")
    params = init_params(cfg, 0)
    assert "out_w" not in params
    ids = rand_ids(cfg, batch=2, seed=1)
    pad = np.zeros(ids.shape, dtype=bool)
    mrows = np.array([0]); mcols = np.array([3]); labels = np.array([5])
    logits, cache = forward_masked(params, cfg, ids, pad, mrows, mcols)
    grads = backward_masked(params, cfg, cache, softmax_xent(logits, labels)[1])
    # gradient flows into the embedding through both the input and the output head
    assert grads["tok_emb"].shape == params["tok_emb"].shape
    assert np.any(grads["tok_emb"][labels[0]] != 0)


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(hidden_dim=10, heads=3)
    with pytest.raises(ValueError):
        ModelConfig(layers=0)
    with pytest.raises(ValueError):
        ModelConfig(dtype="float16")


# ------------------------------------------------------------ bit identity
# The hot path runs in place; these references are its textbook
# (allocating) formulas, and every comparison is exact.

_K, _C = math.sqrt(2.0 / math.pi), 0.044715


def ref_gelu(x):
    x2 = x * x
    t = np.tanh(_K * (x + _C * (x2 * x)))
    return 0.5 * x * (1.0 + t), t


def ref_gelu_grad(x, t):
    x2 = x * x
    return 0.5 * (1.0 + t) + (0.5 * _K) * x * (1.0 - t * t) * (1.0 + (3.0 * _C) * x2)


def ref_layernorm(x, g, b):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + net.LN_EPS)
    xhat = centered * inv_std
    return xhat * g + b, (xhat, inv_std)


def ref_layernorm_backward(dy, g, cache):
    xhat, inv_std = cache
    last = dy.shape[-1]
    dg = (dy * xhat).reshape(-1, last).sum(axis=0)
    db = dy.reshape(-1, last).sum(axis=0)
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return (dxhat - m1 - xhat * m2) * inv_std, dg, db


def ref_nll(logits, labels):
    m = logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(logits - m).sum(axis=-1, dtype=np.float64)) + m[:, 0].astype(np.float64)
    return lse - logits[np.arange(labels.shape[0]), labels].astype(np.float64)


def ref_dloss_dlogits(logits, labels):
    M = labels.shape[0]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    probs[np.arange(M), labels] -= 1.0
    return probs / M


def ref_adamw_step(params, grads, m_all, v_all, t, lr):
    bc1 = 1.0 - optim.BETA1**t
    bc2 = 1.0 - optim.BETA2**t
    for name in sorted(params):
        g, p, m, v = grads[name], params[name], m_all[name], v_all[name]
        m *= optim.BETA1
        m += (1.0 - optim.BETA1) * g
        v *= optim.BETA2
        v += (1.0 - optim.BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + optim.EPS)
        if p.ndim >= 2:
            update = update + optim.WEIGHT_DECAY * p
        p -= p.dtype.type(lr) * update.astype(p.dtype, copy=False)


def ref_forward_backward(params, cfg, ids, pad, mrows, mcols, labels):
    """Loss and gradients from the reference formulas, on [B, L, .] activations.

    Every product is a 2-D GEMM: each encoder linear and its input
    gradient on the [B * L, n] rows (``lin``), the head, the weight
    gradients and the q/k/v input gradients as they come.
    """
    B, L = ids.shape
    H, F, nh, dh = cfg.hidden_dim, cfg.ff_dim, cfg.heads, cfg.hidden_dim // cfg.heads
    dt = cfg.np_dtype
    scale = dt(1.0 / math.sqrt(dh))
    split = lambda a: a.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
    merge = lambda a: a.transpose(0, 2, 1, 3).reshape(B, L, H)
    lin = lambda a, w: (a.reshape(B * L, -1) @ w).reshape(B, L, -1)
    bias = np.where(pad[:, None, None, :], dt(net.ATTN_NEG), dt(0.0))
    emb = params["tok_emb"][ids] + params["pos_emb"][None, :L, :]
    x, emb_ln = ref_layernorm(emb, params["emb_ln_g"], params["emb_ln_b"])
    layers = []
    for i in range(cfg.layers):
        p = f"l{i}_"
        q, k, v = (split(lin(x, params[p + "w" + n]) + params[p + "b" + n]) for n in "qkv")
        scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * scale + bias
        scores -= scores.max(axis=-1, keepdims=True)
        attn = np.exp(scores)
        attn /= attn.sum(axis=-1, keepdims=True)
        ctx = merge(np.matmul(attn, v))
        x1, ln1 = ref_layernorm(x + (lin(ctx, params[p + "wo"]) + params[p + "bo"]),
                                params[p + "ln1_g"], params[p + "ln1_b"])
        ff_pre = lin(x1, params[p + "w1"]) + params[p + "b1"]
        ff_act, ff_tanh = ref_gelu(ff_pre)
        x_out, ln2 = ref_layernorm(x1 + (lin(ff_act, params[p + "w2"]) + params[p + "b2"]),
                                   params[p + "ln2_g"], params[p + "ln2_b"])
        layers.append((x, q, k, v, attn, ctx, ln1, x1, ff_pre, ff_act, ff_tanh, ln2))
        x = x_out
    h = x[mrows, mcols]
    t_pre = h @ params["head_w"] + params["head_b"]
    t_act, t_tanh = ref_gelu(t_pre)
    t_out, head_ln = ref_layernorm(t_act, params["head_ln_g"], params["head_ln_b"])
    logits = t_out @ params["tok_emb"].T + params["out_bias"]
    nll = ref_nll(logits, labels)
    dlogits = ref_dloss_dlogits(logits, labels)

    grads = {name: None for name in params}
    d_outw = t_out.T @ dlogits
    grads["out_bias"] = dlogits.sum(axis=0)
    d_tact, grads["head_ln_g"], grads["head_ln_b"] = ref_layernorm_backward(
        dlogits @ params["tok_emb"], params["head_ln_g"], head_ln)
    d_tpre = d_tact * ref_gelu_grad(t_pre, t_tanh)
    grads["head_w"] = h.T @ d_tpre
    grads["head_b"] = d_tpre.sum(axis=0)
    dx = np.zeros((B, L, H), dtype=dt)
    dx[mrows, mcols] = d_tpre @ params["head_w"].T
    flat = lambda a: a.reshape(-1, a.shape[-1])
    for i in reversed(range(cfg.layers)):
        p = f"l{i}_"
        x_in, q, k, v, attn, ctx, ln1, x1, ff_pre, ff_act, ff_tanh, ln2 = layers[i]
        d_r2, grads[p + "ln2_g"], grads[p + "ln2_b"] = ref_layernorm_backward(
            dx, params[p + "ln2_g"], ln2)
        grads[p + "w2"] = flat(ff_act).T @ flat(d_r2)
        grads[p + "b2"] = flat(d_r2).sum(axis=0)
        d_ffpre = lin(d_r2, params[p + "w2"].T) * ref_gelu_grad(ff_pre, ff_tanh)
        grads[p + "w1"] = flat(x1).T @ flat(d_ffpre)
        grads[p + "b1"] = flat(d_ffpre).sum(axis=0)
        d_r1, grads[p + "ln1_g"], grads[p + "ln1_b"] = ref_layernorm_backward(
            d_r2 + lin(d_ffpre, params[p + "w1"].T), params[p + "ln1_g"], ln1)
        grads[p + "wo"] = flat(ctx).T @ flat(d_r1)
        grads[p + "bo"] = flat(d_r1).sum(axis=0)
        d_ctx = split(lin(d_r1, params[p + "wo"].T))
        d_attn = np.matmul(d_ctx, v.transpose(0, 1, 3, 2))
        d_v = np.matmul(attn.transpose(0, 1, 3, 2), d_ctx)
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        d_q = np.matmul(d_scores, k) * scale
        d_k = np.matmul(d_scores.transpose(0, 1, 3, 2), q) * scale
        dx = d_r1.copy()
        for name, d in (("q", d_q), ("k", d_k), ("v", d_v)):
            d_flat = flat(merge(d))
            grads[p + "w" + name] = flat(x_in).T @ d_flat
            grads[p + "b" + name] = d_flat.sum(axis=0)
            dx += (d_flat @ params[p + "w" + name].T).reshape(B, L, H)
    d_emb, grads["emb_ln_g"], grads["emb_ln_b"] = ref_layernorm_backward(
        dx, params["emb_ln_g"], emb_ln)
    grads["pos_emb"] = np.zeros_like(params["pos_emb"])
    grads["pos_emb"][:L] = d_emb.sum(axis=0)
    d_tok = np.zeros_like(params["tok_emb"])
    np.add.at(d_tok, ids, d_emb)
    d_tok += d_outw.T
    grads["tok_emb"] = d_tok
    return logits, nll, dlogits, grads


DTYPES = ["float32", "float64"]


@pytest.mark.parametrize("dtype", DTYPES)
def test_elementwise_chains_match_reference(dtype):
    rng = np.random.default_rng(8)
    x = (rng.standard_normal((5, 7, 24)) * 3).astype(dtype)
    g = rng.standard_normal(24).astype(dtype)
    b = rng.standard_normal(24).astype(dtype)
    x_before = x.copy()
    y, t = gelu_cached(x)
    y_ref, t_ref = ref_gelu(x)
    assert np.array_equal(y, y_ref) and np.array_equal(t, t_ref)
    assert np.array_equal(gelu_grad(x, t), ref_gelu_grad(x, t_ref))
    out, cache = layernorm(x, g, b)
    out_ref, cache_ref = ref_layernorm(x, g, b)
    assert np.array_equal(out, out_ref)
    assert all(np.array_equal(c, r) for c, r in zip(cache, cache_ref))
    assert np.array_equal(x, x_before)  # neither gelu_cached nor layernorm writes its input
    dy = rng.standard_normal(x.shape).astype(dtype)
    for got, want in zip(layernorm_backward(dy.copy(), g, cache),
                         ref_layernorm_backward(dy, g, cache_ref)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("M", [1, 9])
def test_softmax_xent_matches_two_pass_reference(dtype, M):
    rng = np.random.default_rng(M)
    logits = (rng.standard_normal((M, 300)) * 4).astype(dtype)
    labels = rng.integers(0, 300, size=M)
    before = logits.copy()
    nll, dlogits = softmax_xent(logits, labels)
    assert np.array_equal(logits, before)
    assert nll.dtype == np.float64 and dlogits.dtype == logits.dtype
    assert np.array_equal(nll, ref_nll(logits, labels))
    assert np.array_equal(nll, nll_from_logits(logits, labels))
    assert np.array_equal(dlogits, ref_dloss_dlogits(logits, labels))


@pytest.mark.parametrize("dtype", DTYPES)
def test_adamw_step_matches_reference(dtype):
    rng = np.random.default_rng(5)
    # [300, 128] spans two update blocks, with a partial last one; each
    # first-axis slice of "wide" is larger than a block
    shapes = {"w": (300, 128), "b": (7,), "e": (3, 2, 5), "wide": (2, optim.BLOCK + 3)}
    params = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
    ref = {k: p.copy() for k, p in params.items()}
    m_ref = {k: np.zeros_like(p) for k, p in params.items()}
    v_ref = {k: np.zeros_like(p) for k, p in params.items()}
    opt = AdamW(params)
    for t, lr in ((1, 1e-3), (2, 3e-2), (3, 0.5)):
        grads = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
        opt.step(params, grads, lr)
        ref_adamw_step(ref, grads, m_ref, v_ref, t, lr)
        for k in params:
            assert np.array_equal(params[k], ref[k]), (k, t)
            assert np.array_equal(opt.m[k], m_ref[k]) and np.array_equal(opt.v[k], v_ref[k])


def assert_matches_reference(params, cfg, ids, pad, mrows, mcols, labels):
    """Logits, nll and dlogits equal the reference's; gradients agree to rounding.

    The last layer runs only at the masked rows, so its products sum
    over fewer rows than the reference's, and every weight gradient
    below it moves by summation order: each tensor may differ by
    32 * eps * its largest |ref|. The k biases' gradients are zero in
    exact arithmetic (softmax ignores a per-query shift), so they are
    held to the largest |ref| over all gradients.
    """
    logits, cache = forward_masked(params, cfg, ids, pad, mrows, mcols)
    nll, dlogits = softmax_xent(logits, labels)
    grads = backward_masked(params, cfg, cache, dlogits)
    ref_logits, ref_nll_, ref_dlogits, ref_grads = ref_forward_backward(
        params, cfg, ids, pad, mrows, mcols, labels)
    assert np.array_equal(logits, ref_logits)
    assert np.array_equal(nll, ref_nll_) and np.array_equal(dlogits, ref_dlogits)
    assert list(grads) == list(ref_grads)  # clip_global_norm sums in this order
    tol = 32 * np.finfo(cfg.np_dtype).eps
    largest = max(float(np.abs(g).max()) for g in ref_grads.values())
    for name in grads:
        assert grads[name].dtype == params[name].dtype, name
        scale = largest if name.endswith("_bk") else float(np.abs(ref_grads[name]).max())
        assert np.abs(grads[name] - ref_grads[name]).max() <= tol * scale, name


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("M", [1, 6])
def test_forward_backward_match_reference(dtype, M):
    # at this toy shape per-sequence [L, n] @ w products round differently
    # from one [B * L, n] GEMM, so the comparison also pins the GEMM shapes
    cfg = ModelConfig(layers=2, hidden_dim=16, heads=2, ff_dim=32, vocab_size=40,
                      L_seq=32, dtype=dtype)
    params = init_params(cfg, 4)
    rng = np.random.default_rng(M)
    ids = rng.integers(0, cfg.vocab_size, size=(8, cfg.L_seq))
    pad = np.zeros(ids.shape, dtype=bool)
    pad[0, -3:] = True  # padded attention
    pad[7, -1] = True
    flat = np.sort(rng.choice(8 * 29, size=M, replace=False))
    mrows, mcols = flat // 29, flat % 29
    labels = rng.integers(0, cfg.vocab_size, size=M)
    assert_matches_reference(params, cfg, ids, pad, mrows, mcols, labels)


@pytest.mark.parametrize("dtype", DTYPES)
def test_one_row_fully_masked_others_not_at_all(dtype):
    # every last-layer query comes from row 1: rows 0 and 2 have empty
    # query slices, so their keys, values and inputs get zero gradient
    cfg = ModelConfig(layers=2, hidden_dim=16, heads=2, ff_dim=32, vocab_size=40,
                      L_seq=12, dtype=dtype)
    params = init_params(cfg, 6)
    rng = np.random.default_rng(6)
    ids = rng.integers(0, cfg.vocab_size, size=(3, cfg.L_seq))
    pad = np.zeros(ids.shape, dtype=bool)
    pad[0, -3:] = True
    pad[1, -2:] = True
    mrows, mcols = np.full(cfg.L_seq, 1), np.arange(cfg.L_seq)
    labels = rng.integers(0, cfg.vocab_size, size=cfg.L_seq)
    assert_matches_reference(params, cfg, ids, pad, mrows, mcols, labels)


def test_forward_masked_refuses_decreasing_rows():
    params = init_params(SMALL, 0)
    ids = rand_ids(SMALL)
    pad = np.zeros(ids.shape, dtype=bool)
    with pytest.raises(ValueError, match="non-decreasing"):
        forward_masked(params, SMALL, ids, pad, np.array([0, 2, 1]), np.array([1, 1, 1]))
