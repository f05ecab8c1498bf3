import math

import numpy as np
import pytest

from tvmask.postags import N_CATEGORIES
from tvmask.tracker import CategoryLossTracker, weights_from_losses
from tvmask.trainer import _snapshot_rows


def ema_oracle(losses_per_step, beta, m=N_CATEGORIES):
    """Plain-python restatement of the smoothing recurrence (test oracle)."""
    state = [0.0] * m
    for step_losses in losses_per_step:
        for k, value in enumerate(step_losses):
            if value is not None and not (isinstance(value, float) and math.isnan(value)):
                state[k] = beta * state[k] + (1 - beta) * value
    return state


def weights_oracle(cum, mu=1.0):
    """Independent standardization + logistic, in plain python (test oracle)."""
    m = len(cum)
    mean = sum(cum) / m
    var = sum((v - mean) ** 2 for v in cum) / m
    if var < 1e-12:
        return [0.5] * m
    return [1.0 / (1.0 + math.exp(-((v - mean) / (math.sqrt(var) * mu)))) for v in cum]


def vec(**kv):
    out = np.full(N_CATEGORIES, np.nan)
    for k, v in kv.items():
        out[int(k[1:])] = v
    return out


def test_update_twice_from_zero():
    tr = CategoryLossTracker(beta=0.9)
    tr.update(vec(c0=1.0))
    assert tr.cum_loss[0] == pytest.approx(0.1, abs=1e-12)
    tr.update(vec(c0=1.0))
    assert tr.cum_loss[0] == pytest.approx(0.19, abs=1e-12)


def test_update_zero_loss_decays():
    tr = CategoryLossTracker(beta=0.9)
    tr.cum_loss[3] = 0.5
    tr.update(vec(c3=0.0))
    assert tr.cum_loss[3] == pytest.approx(0.45, abs=1e-12)


def test_absent_category_unchanged():
    tr = CategoryLossTracker(beta=0.9)
    tr.cum_loss[5] = 0.7
    tr.update(vec(c0=1.0))
    assert tr.cum_loss[5] == 0.7


def test_update_validation():
    tr = CategoryLossTracker()
    with pytest.raises(ValueError):
        tr.update(np.zeros(5))
    with pytest.raises(ValueError):
        tr.update(np.full(N_CATEGORIES, -1.0))
    with pytest.raises(ValueError):
        CategoryLossTracker(beta=1.0)
    with pytest.raises(ValueError):
        CategoryLossTracker(mu=0.0)
    with pytest.raises(ValueError, match="mu"):
        CategoryLossTracker(mu=float("nan"))
    with pytest.raises(ValueError, match="underflows"):
        CategoryLossTracker(mu=0.001)  # the lowest weight sigmoid(-4 / mu) is 0


def test_ema_matches_oracle_on_random_streams():
    rng = np.random.default_rng(7)
    for trial in range(20):
        beta = float(rng.uniform(0.5, 0.999))
        tr = CategoryLossTracker(beta=beta)
        steps = []
        for _ in range(int(rng.integers(1, 300))):
            losses = rng.uniform(0, 10, size=N_CATEGORIES)
            absent = rng.random(N_CATEGORIES) < 0.3
            losses[absent] = np.nan
            tr.update(losses)
            steps.append([None if math.isnan(v) else float(v) for v in losses])
        oracle = ema_oracle(steps, beta)
        np.testing.assert_allclose(tr.cum_loss, oracle, atol=1e-9)


def test_weights_all_equal_gives_half():
    for value in (0.0, 1.0, 123.45):
        w = weights_from_losses(np.full(N_CATEGORIES, value))
        assert np.all(w == 0.5)


def test_weights_toy_example():
    w = weights_from_losses(np.array([0.0, 1.0, 2.0]), mu=1.0)
    np.testing.assert_allclose(w, weights_oracle([0.0, 1.0, 2.0]), atol=1e-9)
    np.testing.assert_allclose(w, [0.2271, 0.5, 0.7729], atol=1e-4)


def test_weights_affine_invariance():
    rng = np.random.default_rng(11)
    for _ in range(200):
        cum = rng.uniform(0, 10, size=N_CATEGORIES)
        a = float(rng.uniform(0.1, 5.0))
        b = float(rng.uniform(-3.0, 3.0))
        np.testing.assert_allclose(
            weights_from_losses(a * cum + b), weights_from_losses(cum), atol=1e-9
        )


def test_weights_monotone_ranking():
    rng = np.random.default_rng(13)
    for _ in range(200):
        cum = rng.uniform(0, 5, size=N_CATEGORIES)
        w = weights_from_losses(cum)
        order = np.argsort(cum)
        assert np.all(np.diff(w[order]) >= -1e-15)
        strict = np.diff(cum[order]) > 1e-9
        assert np.all(np.diff(w[order])[strict] > 0)


def test_weights_open_interval_bounds():
    w = weights_from_losses(np.array([0.0] * 16 + [1e9]))
    assert np.all(w > 0) and np.all(w < 1)


def test_zero_history_uniform():
    tr = CategoryLossTracker()
    assert np.all(tr.weights() == 0.5)


def test_snapshot_copy_semantics():
    # the trainer's snapshot rows are copies of the tracker state at one step
    tr = CategoryLossTracker(beta=0.9)
    rows0 = _snapshot_rows(tr, 0)
    assert all(r["step"] == 0 for r in rows0)
    assert all(r["cum_loss"] == 0.0 for r in rows0)
    assert all(r["weight"] == 0.5 for r in rows0)
    tr.update(vec(c0=2.0))
    assert all(r["cum_loss"] == 0.0 for r in rows0)  # rows unaffected by update
    rows1 = _snapshot_rows(tr, 1)
    assert rows1 == _snapshot_rows(tr, 1)
    assert [r["cum_loss"] for r in rows1] == tr.cum_loss.tolist()
    assert [r["weight"] for r in rows1] == tr.weights().tolist()
