import numpy as np
import pytest

from tvmask.masking import ACTION_KEEP, MaskPolicy, build_batch, target_count
from tvmask.masking.plan import ACTION_MASK, ACTION_RANDOM, sample_weighted

from conftest import make_sequence, plan_one


def enumerate_orders(weights, count):
    """All ordered draws of the successive proportional process, with their
    exact probabilities (test oracle for inclusion probabilities)."""
    orders = {}

    def rec(avail, chosen, prob):
        if len(chosen) == count:
            orders[tuple(chosen)] = prob
            return
        total = sum(w for _, w in avail)
        for i, (idx, w) in enumerate(avail):
            if w > 0:
                rec(avail[:i] + avail[i + 1 :], chosen + [idx], prob * w / total)

    rec([(i, w) for i, w in enumerate(weights) if w > 0], [], 1.0)
    return orders


def inclusion_from_orders(orders, n):
    probs = np.zeros(n)
    for order, p in orders.items():
        for idx in order:
            probs[idx] += p
    return probs


def assert_inclusion_frequencies(weights, count, expected, seed, rows=20000):
    """One batched sampler call of ``rows`` identical rows; each position's
    inclusion frequency must lie within 4 sigma of ``expected``."""
    tiled = np.tile(np.asarray(weights, dtype=np.float64), (rows, 1))
    selected = sample_weighted(tiled, np.full(rows, count), np.random.default_rng(seed))
    freqs = selected.mean(axis=0)
    sigma = np.sqrt(expected * (1.0 - expected) / rows)
    assert np.all(np.abs(freqs - expected) <= 4.0 * sigma), (freqs, expected)


# ------------------------------------------------------------ target_count

def test_target_count_values():
    assert target_count(0.15, 100) == 15
    assert target_count(0.02, 10) == 1  # minimum-one rule at the cosine floor
    assert target_count(0.0, 100) == 0
    assert target_count(0.5, 0) == 0
    assert target_count(0.999, 10) == 10


def test_target_count_rounding_bound():
    rng = np.random.default_rng(0)
    for _ in range(500):
        ratio = float(rng.uniform(0.01, 0.99))
        n = int(rng.integers(1, 300))
        count = target_count(ratio, n)
        assert abs(count - ratio * n) <= 0.5 + 1e-9 or count == 1


def test_target_count_validation():
    with pytest.raises(ValueError):
        target_count(1.0, 10)
    with pytest.raises(ValueError):
        target_count(-0.1, 10)
    with pytest.raises(ValueError, match="ratio"):
        target_count(float("nan"), 10)


# ------------------------------------------------------------ selection

def test_select_random_exhaustive_and_empty(letters_vocab):
    seq = make_sequence(n=10, n_special_tail=2)
    rng = np.random.default_rng(0)
    got = plan_one(seq, seq.n_maskable, letters_vocab, rng).cols
    expected = np.nonzero(~seq.special_mask)[0]
    np.testing.assert_array_equal(got, expected)
    assert plan_one(seq, 0, letters_vocab, np.random.default_rng(0)).cols.size == 0


def test_select_random_uniform_frequency(letters_vocab):
    seq = make_sequence(n=12, n_special_tail=1)  # CLS + SEP special, 10 maskable
    trials = 20000
    counts = np.zeros(12)
    for i in range(trials):
        rng = np.random.default_rng(i)
        counts[plan_one(seq, 1, letters_vocab, rng).cols[0]] += 1
    freqs = counts[~seq.special_mask] / trials
    sigma = np.sqrt(0.1 * 0.9 / trials)
    assert np.all(np.abs(freqs - 0.1) < 3.5 * sigma)
    assert counts[seq.special_mask].sum() == 0


def test_select_ptw_reduces_to_uniform_inclusion():
    # exact inclusion probabilities vs full enumeration of sampling orders
    for n, tail in ((6, 2), (8, 2), (9, 3)):
        seq = make_sequence(n=n, n_special_tail=tail, pos_pattern=[0, 1, 2])
        m = seq.n_maskable
        weights_full = np.where(seq.special_mask, 0.0, 0.5)
        for count in range(1, min(m, 4) + 1):
            orders = enumerate_orders(weights_full.tolist(), count)
            inclusion = inclusion_from_orders(orders, n)
            expect = np.where(seq.special_mask, 0.0, count / m)
            np.testing.assert_allclose(inclusion, expect, atol=1e-9)
            assert abs(sum(orders.values()) - 1.0) < 1e-9


def test_kernel_realizes_enumerated_process():
    # non-uniform weights, count >= 2: Monte-Carlo inclusion frequencies of
    # the batched sampler against the exact successive-draw enumeration
    weights = [0.5, 0.0, 0.2, 0.9, 0.4, 0.05]
    for count in (2, 3, 4):
        expected = inclusion_from_orders(enumerate_orders(weights, count), len(weights))
        assert_inclusion_frequencies(weights, count, expected, seed=count)


def test_select_ptw_weighted_frequency(letters_vocab):
    seq = make_sequence(n=4, n_special_tail=1, pos_pattern=[0, 1, 0, 1])
    # maskable positions: 1 (pos cat 1) and 2 (pos cat 0)
    weights_by_cat = np.array([0.2271, 0.7729, 0.5])
    trials = 20000
    hits = 0
    for i in range(trials):
        rng = np.random.default_rng(i)
        if plan_one(seq, 1, letters_vocab, rng, weights_by_category=weights_by_cat).cols[0] == 1:
            hits += 1
    p = 0.7729 / (0.7729 + 0.2271)
    sigma = np.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) < 3.5 * sigma


def test_select_ptw_exhaustive_ignores_weights(letters_vocab):
    seq = make_sequence(n=8, n_special_tail=2, pos_pattern=[0, 1])
    weights = np.array([0.9, 0.1] + [0.5] * 15)
    got = plan_one(seq, seq.n_maskable, letters_vocab, np.random.default_rng(1),
                   weights_by_category=weights).cols
    np.testing.assert_array_equal(got, np.nonzero(~seq.special_mask)[0])


def test_select_ptw_rejects_nonpositive_weights(letters_vocab):
    seq = make_sequence(n=6, n_special_tail=2, pos_pattern=[0])
    with pytest.raises(ValueError):
        plan_one(seq, 1, letters_vocab, np.random.default_rng(0), weights_by_category=np.zeros(17))


def test_selection_is_sorted_and_deterministic(letters_vocab):
    seq = make_sequence(n=32, n_special_tail=4, pos_pattern=[0, 1, 2])
    a = plan_one(seq, 9, letters_vocab, np.random.default_rng(42)).cols
    b = plan_one(seq, 9, letters_vocab, np.random.default_rng(42)).cols
    np.testing.assert_array_equal(a, b)
    assert np.all(np.diff(a) > 0)


# ------------------------------------------------------------ corruption

def default_split_plans(vocab, n_plans=20):
    """Default-split plans of a 6-row batch at ratio 0.5, one per seed, each with
    the selected-position mask of its batch."""
    seq = make_sequence(n=40, n_special_tail=3, vocab_size=vocab.size)
    tokens, pos, special = (np.tile(a, (6, 1)) for a in (seq.token_ids, seq.pos_ids,
                                                          seq.special_mask))
    for seed in range(n_plans):
        plan = build_batch(tokens, pos, special, 0.5, MaskPolicy(), vocab,
                           np.random.default_rng(seed))
        selected = np.zeros(tokens.shape, dtype=bool)
        selected[plan.rows, plan.cols] = True
        yield tokens, plan, selected


def test_corrupt_all_mask_policy(letters_vocab):
    # masked positions hold the mask id; unselected positions are untouched and
    # every selected position is labelled with its original id
    n_masked = 0
    for tokens, plan, selected in default_split_plans(letters_vocab):
        np.testing.assert_array_equal(plan.corrupted_ids[~selected], tokens[~selected])
        np.testing.assert_array_equal(plan.labels, tokens[plan.rows, plan.cols])
        got = plan.corrupted_ids[plan.rows, plan.cols][plan.actions == ACTION_MASK]
        assert np.all(got == letters_vocab.mask_id)
        n_masked += got.size
    assert n_masked > 0


def test_corrupt_keep_positions_still_in_plan(letters_vocab):
    # a kept position is selected and labelled like any other, and holds its original
    n_kept = 0
    for tokens, plan, selected in default_split_plans(letters_vocab):
        kept = plan.actions == ACTION_KEEP
        rows, cols = plan.rows[kept], plan.cols[kept]
        assert np.all(selected[rows, cols])
        np.testing.assert_array_equal(plan.corrupted_ids[rows, cols], tokens[rows, cols])
        np.testing.assert_array_equal(plan.labels[kept], tokens[rows, cols])
        n_kept += rows.size
    assert n_kept > 0


def test_corrupt_random_draws_nonreserved(letters_vocab):
    # a randomly replaced position holds a non-reserved id, and no action other
    # than mask, random and keep occurs
    n_random = 0
    for _, plan, _ in default_split_plans(letters_vocab):
        assert set(np.unique(plan.actions)) <= {ACTION_MASK, ACTION_RANDOM, ACTION_KEEP}
        got = plan.corrupted_ids[plan.rows, plan.cols][plan.actions == ACTION_RANDOM]
        assert np.all((got >= letters_vocab.n_reserved) & (got < letters_vocab.size))
        n_random += got.size
    assert n_random > 0


def test_corrupt_proportions(letters_vocab):
    policy = MaskPolicy(strategy="random")
    seq = make_sequence(n=104, n_special_tail=2, vocab_size=letters_vocab.size)
    counts = np.zeros(3)
    trials = 400
    for i in range(trials):
        plan = plan_one(seq, 100, letters_vocab, np.random.default_rng(i), policy)
        counts += np.bincount(plan.actions, minlength=3)
    fracs = counts / counts.sum()
    np.testing.assert_allclose(fracs, [0.8, 0.1, 0.1], atol=0.01)


def test_policy_validation():
    with pytest.raises(ValueError):
        MaskPolicy(strategy="bogus")


# ------------------------------------------------------------ one-row plans

def build_one(seq, ratio, policy, vocab, rng, weights_by_category=None):
    return build_batch(seq.token_ids[None], seq.pos_ids[None], seq.special_mask[None],
                       ratio, policy, vocab, rng, weights_by_category)


def test_build_plan_deterministic(letters_vocab):
    seq = make_sequence(n=24, n_special_tail=3, pos_pattern=[0, 1, 4], vocab_size=letters_vocab.size)
    policy = MaskPolicy(strategy="ptw")
    weights = np.linspace(0.2, 0.8, 17)
    plans = [build_one(seq, 0.3, policy, letters_vocab, np.random.default_rng(9),
                       weights_by_category=weights) for _ in range(2)]
    np.testing.assert_array_equal(plans[1].cols, plans[0].cols)
    np.testing.assert_array_equal(plans[1].actions, plans[0].actions)
    np.testing.assert_array_equal(plans[1].corrupted_ids, plans[0].corrupted_ids)


def test_build_plan_never_masks_specials(letters_vocab):
    rng_master = np.random.default_rng(3)
    policy = MaskPolicy(strategy="random")
    for _ in range(100):
        n = int(rng_master.integers(8, 40))
        tail = int(rng_master.integers(1, 4))
        seq = make_sequence(n=n, n_special_tail=tail, vocab_size=letters_vocab.size)
        ratio = float(rng_master.uniform(0.01, 0.9))
        plan = build_one(seq, ratio, policy, letters_vocab,
                         np.random.default_rng(rng_master.integers(1 << 30)))
        assert not np.any(seq.special_mask[plan.cols])
        # budget property, modulo the minimum-one rule
        m = seq.n_maskable
        assert abs(plan.cols.size / m - ratio) <= 0.5 / m or plan.cols.size == 1


def test_build_plan_requires_weights_for_ptw(letters_vocab):
    seq = make_sequence(n=10, n_special_tail=2, vocab_size=letters_vocab.size)
    with pytest.raises(ValueError):
        build_one(seq, 0.2, MaskPolicy(strategy="ptw"), letters_vocab, np.random.default_rng(0))
