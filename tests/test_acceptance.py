"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 8 and 9 train
the desk-scale model (2 layers x 128 hidden, L_seq 128) for 2000 steps
on a >= 1M-token synthetic tagged corpus; expect roughly two minutes
per run on a small CPU box. They are marked ``slow``: `pytest -m "not slow"`
runs everything else.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from tvmask.config import RunConfig
from tvmask.corpus.packing import pack_to_arrays
from tvmask.corpus.vocab import build_vocab
from tvmask.masking import MaskPolicy
from tvmask.postags import FUNCTION_IDS, NON_FUNCTION_IDS, UPOS_TAGS
from tvmask.schedule import ScheduleKind, ScheduleSpec, expected_mass, ratio_at
from tvmask.tracker import CategoryLossTracker, weights_from_losses
from tvmask.trainer import ListSink, eval_mlm, load_checkpoint, save_checkpoint, train

from conftest import make_sequence, plan_one, synth_corpus
from gradcheck import TINY_CONFIG, grad_check
from test_masker import assert_inclusion_frequencies, enumerate_orders, inclusion_from_orders


@contextlib.contextmanager
def criterion(number, description):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description} ({time.perf_counter() - t0:.1f}s)")


def build_corpus(n_tokens, seed, vocab_size, L_seq, vocab=None):
    corpus = synth_corpus(n_tokens, seed)
    if vocab is None:
        vocab = build_vocab(corpus, vocab_size)
    tokens, pos = pack_to_arrays(corpus, L_seq, vocab)
    return tokens, pos, vocab, len(corpus.form_ids)


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def micro_corpus():
    return build_corpus(60_000, 2024, vocab_size=1024, L_seq=64)


@pytest.fixture(scope="module")
def desk_corpus():
    data = build_corpus(1_050_000, 104729, vocab_size=8192, L_seq=128)
    assert data[3] >= 1_000_000  # the >= 1M token requirement
    return data


DESK_MODEL = dict(model_layers=2, model_hidden_dim=128, model_heads=2, model_ff_dim=512)
MICRO_MODEL = dict(model_layers=1, model_hidden_dim=16, model_heads=2, model_ff_dim=32)


def run_training(corpus, model_kw, kind, strategy, T, seed, batch_size=8, state=None,
                 checkpoint_dir=None, **run_kw):
    tokens, pos, vocab, _ = corpus
    run_kw.setdefault("lr_base", 1e-3)
    run_kw.setdefault("lr_warmup", 100)
    run_kw.setdefault("train_checkpoint_every", 0)
    run_cfg = RunConfig(schedule_kind=kind.value, schedule_p=0.15, mask_strategy=strategy,
                        train_T=T, train_batch_size=batch_size, run_seed=seed,
                        **model_kw, **run_kw)
    sink = ListSink()
    state = train(run_cfg, tokens, pos, vocab, sink=sink, state=state,
                  checkpoint_dir=checkpoint_dir)
    return state, sink, run_cfg.model_config(vocab.size, tokens.shape[1])


@pytest.fixture(scope="module")
def desk_run_random(desk_corpus):
    return run_training(desk_corpus, DESK_MODEL, ScheduleKind.FIXED, "random",
                        T=2000, seed=608)


@pytest.fixture(scope="module")
def desk_run_ptw(desk_corpus):
    return run_training(desk_corpus, DESK_MODEL, ScheduleKind.FIXED, "ptw",
                        T=2000, seed=608)


def group_mean(rows, key, ids):
    names = {UPOS_TAGS[i] for i in ids}
    vals = [r[key] for r in rows if r["category_name"] in names]
    assert len(vals) == len(ids)
    return float(np.mean(vals))


# ---------------------------------------------------------------- criteria

def test_criterion_01_schedule_exactness():
    with criterion(1, "schedule endpoints and pointwise symmetry at 1e-12"):
        T = 10_000
        lin = ScheduleSpec(ScheduleKind.LINEAR, p=0.15, T=T)
        cos = ScheduleSpec(ScheduleKind.COSINE, p=0.15, T=T)
        assert abs(ratio_at(lin, 0) - 0.30) < 1e-12
        assert abs(ratio_at(lin, T) - 0.0) < 1e-12
        assert abs(ratio_at(cos, 0) - 0.32) < 1e-12
        assert abs(ratio_at(cos, T) - 0.02) < 1e-12
        for t in range(T + 1):
            assert abs(ratio_at(lin, t) + ratio_at(lin, T - t) - 0.30) < 1e-12
            assert abs(ratio_at(cos, t) + ratio_at(cos, T - t) - 0.34) < 1e-12


def test_criterion_02_token_budget_parity(micro_corpus):
    with criterion(2, "linear-decay token budget matches the fixed-ratio baseline"):
        # discrete mean against an independent brute-force summation
        T = 1000
        brute = sum((1 - t / T) * 2 * 0.15 for t in range(T)) / T
        mass = expected_mass(ScheduleSpec(ScheduleKind.LINEAR, p=0.15, T=T))
        assert abs(mass - 0.15 * (T + 1) / T) < 1e-9
        assert abs(mass - brute) < 1e-9
        # full training runs: total masked tokens within 2% at equal T
        _, sink_mrd, _ = run_training(micro_corpus, MICRO_MODEL, ScheduleKind.LINEAR,
                                      "random", T=2000, seed=77)
        _, sink_fix, _ = run_training(micro_corpus, MICRO_MODEL, ScheduleKind.FIXED,
                                      "random", T=2000, seed=77)
        mrd_total = sum(r["masked"] for r in sink_mrd.metrics)
        fix_total = sum(r["masked"] for r in sink_fix.metrics)
        assert abs(mrd_total - fix_total) / fix_total <= 0.02


def test_criterion_03_ema_oracle_equivalence():
    with criterion(3, "tracker equals the smoothing recurrence on 1000 random streams"):
        rng = np.random.default_rng(31337)
        m = len(UPOS_TAGS)
        lengths = [10_000] * 10 + [int(v) for v in rng.integers(1, 400, size=990)]
        for i, length in enumerate(lengths):
            beta = float(rng.uniform(0.5, 0.999))
            tracker = CategoryLossTracker(beta=beta)
            oracle = np.zeros(m)
            for _ in range(length):
                losses = rng.uniform(0.0, 10.0, size=m)
                if i % 3 == 0:  # exercise the absent-category path
                    losses[rng.random(m) < 0.2] = np.nan
                tracker.update(losses)
                present = ~np.isnan(losses)
                oracle[present] = beta * oracle[present] + (1 - beta) * losses[present]
            np.testing.assert_allclose(tracker.cum_loss, oracle, atol=1e-9)


def test_criterion_04_weight_vector_properties():
    with criterion(4, "weight standardization: 0.5 at rest, affine-invariant, monotone, bounded"):
        m = len(UPOS_TAGS)
        for value in (0.0, 3.7):
            assert np.all(weights_from_losses(np.full(m, value)) == 0.5)
        rng = np.random.default_rng(271828)
        for _ in range(1000):
            cum = rng.uniform(0.0, 10.0, size=m)
            a = float(rng.uniform(0.05, 20.0))
            b = float(rng.uniform(-5.0, 5.0))
            w = weights_from_losses(cum)
            np.testing.assert_allclose(weights_from_losses(a * cum + b), w, atol=1e-9)
            order = np.argsort(cum)
            strict = np.diff(cum[order]) > 1e-9
            assert np.all(np.diff(w[order])[strict] > 0)
            assert np.all((w > 0.0) & (w < 1.0))


def test_criterion_05_ptw_random_reduction(letters_vocab):
    with criterion(5, "uniform-weight ptw inclusion equals uniform sampling (full enumeration)"):
        checked_cases = 0
        for n in range(4, 13):
            tail = 2 if n < 10 else 3
            seq = make_sequence(n=n, n_special_tail=tail, pos_pattern=[0, 1, 2])
            m = seq.n_maskable
            weights_full = np.where(seq.special_mask, 0.0, 0.5).tolist()
            counts = range(1, m + 1) if m <= 7 else [1, 2, 3]
            for count in counts:
                orders = enumerate_orders(weights_full, count)
                inclusion = inclusion_from_orders(orders, n)
                expect = np.where(seq.special_mask, 0.0, count / m)
                np.testing.assert_allclose(inclusion, expect, atol=1e-9)
                assert abs(sum(orders.values()) - 1.0) < 1e-9
                # the batched sampler realizes these inclusion probabilities
                assert_inclusion_frequencies(weights_full, count, inclusion, seed=n * 100 + count)
                checked_cases += 1
            # exhaustive draw needs no enumeration: every position must appear
            got = plan_one(seq, m, letters_vocab, np.random.default_rng(n),
                           weights_by_category=np.full(17, 0.5)).cols
            np.testing.assert_array_equal(got, np.nonzero(~seq.special_mask)[0])
        assert checked_cases > 30


def test_criterion_06_sampling_frequencies(letters_vocab):
    with criterion(6, "monte-carlo frequencies: ptw ratio, corrupt split, no special hits"):
        # two-position weighted choice over 1e5 trials within 3 sigma
        seq = make_sequence(n=4, n_special_tail=1, pos_pattern=[0, 1, 0, 1])
        weights_by_cat = np.array([0.2271, 0.7729, 0.5])
        trials = 100_000
        sub = np.random.SeedSequence(900).spawn(trials)
        hits = 0
        special_hits = 0
        for i in range(trials):
            picked = plan_one(seq, 1, letters_vocab, np.random.default_rng(sub[i]),
                              weights_by_category=weights_by_cat).cols
            hits += int(picked[0] == 1)
            special_hits += int(seq.special_mask[picked[0]])
        p = 0.7729 / (0.7729 + 0.2271)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) <= 3 * sigma
        assert special_hits == 0

        # corrupt split proportions within +/- 1% over 1e5 selections
        big = make_sequence(n=104, n_special_tail=2, vocab_size=letters_vocab.size)
        policy = MaskPolicy(strategy="random")
        counts = np.zeros(3)
        for i in range(1000):
            plan = plan_one(big, 100, letters_vocab, np.random.default_rng(i), policy)
            counts += np.bincount(plan.actions, minlength=3)
            assert not np.any(big.special_mask[plan.cols])
        fracs = counts / counts.sum()
        np.testing.assert_allclose(fracs, [0.8, 0.1, 0.1], atol=0.01)

        # uniform selection frequency: 1e5 single draws from 10 positions
        seq10 = make_sequence(n=12, n_special_tail=1)
        tally = np.zeros(12)
        sub = np.random.SeedSequence(901).spawn(trials)
        for i in range(trials):
            tally[plan_one(seq10, 1, letters_vocab, np.random.default_rng(sub[i])).cols[0]] += 1
        freqs = tally[~seq10.special_mask] / trials
        sigma10 = math.sqrt(0.1 * 0.9 / trials)
        assert np.all(np.abs(freqs - 0.1) <= 3 * sigma10)
        assert tally[seq10.special_mask].sum() == 0


def test_criterion_07_gradient_check():
    with criterion(7, "analytic gradients match central differences; sabotage detected"):
        assert grad_check(TINY_CONFIG, seed=0) < 1e-4
        assert grad_check(TINY_CONFIG, seed=1) < 1e-4
        assert grad_check(TINY_CONFIG, seed=0, perturb=True) > 1e-2


@pytest.mark.slow
def test_criterion_08_function_words_converge_faster(desk_corpus, desk_run_random):
    with criterion(8, "fixed-0.15 desk run: function-word losses below non-function"):
        state, sink, cfg = desk_run_random
        assert state.step == 2000
        final = [r for r in sink.snapshots if r["step"] == 2000]
        fn = group_mean(final, "cum_loss", FUNCTION_IDS)
        nf = group_mean(final, "cum_loss", NON_FUNCTION_IDS)
        assert fn < nf, (fn, nf)
        # training made progress: window-100 smoothed loss down from step 100 to 2000
        losses = [r["loss"] for r in sink.metrics]
        assert np.mean(losses[1900:2000]) < np.mean(losses[0:100])
        # held-out check mirrors the same direction
        vocab = desk_corpus[2]
        heldout = build_corpus(40_000, 424243, vocab_size=8192, L_seq=128, vocab=vocab)
        report = eval_mlm(state.params, cfg, heldout[0], heldout[1], vocab,
                          ratio=0.15, seed=5)
        assert report["groups"]["function"] < report["groups"]["non_function"]


@pytest.mark.slow
def test_criterion_09_ptw_upweights_hard_words(desk_run_ptw):
    with criterion(9, "ptw desk run: non-function masking weights above function"):
        state, sink, _ = desk_run_ptw
        assert state.step == 2000
        final = [r for r in sink.snapshots if r["step"] == 2000]
        fn_w = group_mean(final, "weight", FUNCTION_IDS)
        nf_w = group_mean(final, "weight", NON_FUNCTION_IDS)
        assert nf_w > fn_w, (nf_w, fn_w)


def test_criterion_10_determinism_and_resume(micro_corpus, tmp_path):
    with criterion(10, "bit-identical reruns and gapless checkpoint resume"):
        _, sink_a, _ = run_training(micro_corpus, MICRO_MODEL, ScheduleKind.LINEAR,
                                    "ptw", T=300, seed=1234)
        _, sink_b, _ = run_training(micro_corpus, MICRO_MODEL, ScheduleKind.LINEAR,
                                    "ptw", T=300, seed=1234)
        assert sink_a.metrics == sink_b.metrics
        assert sink_a.snapshots == sink_b.snapshots

        # interruption: take the checkpoint the full-horizon run wrote at 150
        full, _, _ = run_training(micro_corpus, MICRO_MODEL, ScheduleKind.LINEAR,
                                  "ptw", T=300, seed=1234, train_checkpoint_every=150,
                                  checkpoint_dir=str(tmp_path))
        loaded, _, _ = load_checkpoint(str(tmp_path / "step_00000150.ckpt"))
        assert loaded.step == 150
        resumed, sink_resumed, _ = run_training(micro_corpus, MICRO_MODEL,
                                                ScheduleKind.LINEAR, "ptw",
                                                T=300, seed=1234, state=loaded)
        tail = [r for r in sink_a.metrics if r["step"] >= 150]
        assert sink_resumed.metrics == tail
        for name in full.params:
            np.testing.assert_array_equal(full.params[name], resumed.params[name])
