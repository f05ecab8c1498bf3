import math

import numpy as np
import pytest

from tvmask.model.gradcheck import TINY_CONFIG, grad_check
from tvmask.model.net import (
    ModelConfig,
    backward_masked,
    dloss_dlogits,
    forward_masked,
    init_params,
    nll_from_logits,
    per_category_losses,
)
from tvmask.model.optim import AdamW, clip_global_norm

SMALL = ModelConfig(layers=1, hidden_dim=16, heads=2, ff_dim=32, vocab_size=50,
                    L_seq=12, tied=True, dtype="float64")


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
                      L_seq=12, tied=False, dtype="float64")
    params = init_params(cfg, 0)
    params["out_w"][:] = 0.0
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
    grads = backward_masked(params, SMALL, cache, dloss_dlogits(logits, labels))
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
                      L_seq=8, tied=True, dtype="float64")
    params = init_params(cfg, 0)
    assert "out_w" not in params
    ids = rand_ids(cfg, batch=2, seed=1)
    pad = np.zeros(ids.shape, dtype=bool)
    mrows = np.array([0]); mcols = np.array([3]); labels = np.array([5])
    logits, cache = forward_masked(params, cfg, ids, pad, mrows, mcols)
    grads = backward_masked(params, cfg, cache, dloss_dlogits(logits, labels))
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
