import numpy as np
import pytest

from tvmask.masking.plan import sample_weighted


def random_case(rng, n_rows=64, n_max=128):
    n = int(rng.integers(2, n_max))
    weights = rng.uniform(0.05, 1.0, size=(n_rows, n))
    weights[rng.random((n_rows, n)) < 0.25] = 0.0
    weights[:, 0] = 0.5  # every row keeps an eligible position
    counts = rng.integers(0, np.count_nonzero(weights, axis=1) + 1)
    return weights, counts


def test_never_selects_zero_weight():
    rng = np.random.default_rng(5)
    for _ in range(50):
        weights, counts = random_case(rng)
        selected = sample_weighted(weights, counts, rng)
        np.testing.assert_array_equal(selected.sum(axis=1), counts)  # exact per-row counts
        assert not np.any(selected & (weights == 0.0))


def test_exhaustive_draw_returns_all():
    weights = np.array([[0.0, 1.0, 2.0, 0.0, 3.0],
                        [4.0, 0.0, 0.0, 1e-3, 0.0]])
    selected = sample_weighted(weights, np.array([3, 2]), np.random.default_rng(0))
    np.testing.assert_array_equal(selected, weights > 0)


def test_count_zero():
    weights = np.ones((3, 4))
    selected = sample_weighted(weights, np.array([0, 2, 0]), np.random.default_rng(0))
    assert not selected[[0, 2]].any()
    assert selected[1].sum() == 2


def test_overdraw_raises():
    with pytest.raises(ValueError):
        sample_weighted(np.array([[1.0, 0.0]]), np.array([2]), np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_weighted(np.array([[1.0, 1.0]]), np.array([-1]), np.random.default_rng(0))


def test_subnormal_weight_beats_zero_weight():
    # log-space keys keep the smallest positive double eligible; a key of
    # log(u) / w would be -inf here and tie with the zero-weight slots
    weights = np.zeros((2000, 16))
    weights[:, 3] = 5e-324
    weights[:, 9] = 1.0
    selected = sample_weighted(weights, np.full(2000, 2), np.random.default_rng(1))
    assert selected[:, [3, 9]].all()
    assert selected.sum() == 4000

