import math

import numpy as np
import pytest

from tvmask import trainer
from tvmask.config import ConfigError, RunConfig
from tvmask.corpus.packing import pack_to_arrays, special_positions
from tvmask.corpus.vocab import build_vocab
from tvmask.masking import MaskPolicy
from tvmask.model.net import ModelConfig, backward_masked, forward_masked, softmax_xent
from tvmask.model.optim import AdamW
from tvmask.postags import UPOS_TAGS
from tvmask.schedule import ScheduleKind, ScheduleSpec
from tvmask.trainer import (
    ListSink,
    TrainAbort,
    checkpoint_steps,
    eval_mlm,
    fresh_state,
    load_checkpoint,
    load_params,
    lr_at,
    make_batch,
    save_checkpoint,
    train,
    train_step,
)

from conftest import synth_corpus

MICRO_MODEL = dict(model_layers=1, model_hidden_dim=16, model_heads=2, model_ff_dim=32)


@pytest.fixture(scope="module")
def micro_data():
    corpus = synth_corpus(12000, 31)
    vocab = build_vocab(corpus, 512)
    tokens, pos = pack_to_arrays(corpus, 32, vocab)
    return tokens, pos, special_positions(tokens), vocab


def micro_cfg(vocab):
    return RunConfig(**MICRO_MODEL).model_config(vocab.size, 32)


def run_micro(micro_data, T=40, strategy="random", kind=ScheduleKind.FIXED, seed=5,
              state=None, checkpoint_dir=None, **overrides):
    tokens, pos, _, vocab = micro_data
    overrides.setdefault("lr_warmup", 10)
    overrides.setdefault("train_checkpoint_every", 0)
    cfg = RunConfig(schedule_kind=kind.value, schedule_p=0.15, mask_strategy=strategy,
                    train_T=T, train_batch_size=4, run_seed=seed, **MICRO_MODEL, **overrides)
    sink = ListSink()
    final = train(cfg, tokens, pos, vocab, sink=sink, state=state,
                  checkpoint_dir=checkpoint_dir)
    return final, sink


# ------------------------------------------------------------ lr schedule

def test_lr_warmup_is_linear():
    for t in range(10):
        assert lr_at(t, 1e-3, 10, 100, ScheduleKind.FIXED) == pytest.approx(1e-3 * t / 10)


def test_lr_shapes_after_warmup():
    base, W, T = 2e-3, 10, 110
    assert lr_at(60, base, W, T, ScheduleKind.FIXED) == base
    assert lr_at(60, base, W, T, ScheduleKind.LINEAR) == pytest.approx(base * 0.5)
    assert lr_at(60, base, W, T, ScheduleKind.COSINE) == pytest.approx(base * 0.5)
    assert lr_at(T, base, W, T, ScheduleKind.LINEAR) == 0.0
    assert lr_at(60, base, W, T, ScheduleKind.ASCENDING) == pytest.approx(base * 0.5)


# ------------------------------------------------------------ training loop

def test_zero_steps_refused(micro_data):
    # the masking schedule spans train.T steps, so a run needs at least one
    tokens, pos, _, vocab = micro_data
    cfg = RunConfig(train_T=0, train_batch_size=4, run_seed=1)
    with pytest.raises(ConfigError, match=r"train\.T"):
        train(cfg, tokens, pos, vocab, sink=ListSink())


def test_training_is_deterministic(micro_data):
    _, sink1 = run_micro(micro_data, T=30)
    _, sink2 = run_micro(micro_data, T=30)
    assert sink1.metrics == sink2.metrics
    assert sink1.snapshots == sink2.snapshots


def test_metrics_record_schedule_ratio(micro_data):
    _, sink = run_micro(micro_data, T=20, kind=ScheduleKind.LINEAR)
    spec = ScheduleSpec(ScheduleKind.LINEAR, p=0.15, T=20)
    for row in sink.metrics:
        assert row["ratio"] == pytest.approx(
            max((1 - row["step"] / 20) * 0.3, 0.0), abs=1e-12)
        assert row["masked"] >= 4  # minimum-one rule per sequence, batch of 4


def test_metrics_record_pre_clip_grad_norm(micro_data):
    tokens, pos, special, vocab = micro_data
    _, sink = run_micro(micro_data, T=12, lr_base=3e-2)
    norms = [row["grad_norm"] for row in sink.metrics]
    assert all(math.isfinite(n) and n > 0 for n in norms)

    # step 0 from scratch: the same batch through the same initial weights
    cfg = micro_cfg(vocab)
    state = fresh_state(cfg, RunConfig(run_seed=5))
    rows, corrupted, mrows, mcols, labels, _ = make_batch(
        tokens, pos, special, vocab, 0.15, MaskPolicy(), None, 5, 0, 4)
    logits, cache = forward_masked(state.params, cfg, corrupted,
                                   tokens[rows] == vocab.pad_id, mrows, mcols)
    grads = backward_masked(state.params, cfg, cache, softmax_xent(logits, labels)[1])
    flat = np.concatenate([g.ravel().astype(np.float64) for g in grads.values()])
    assert norms[0] == pytest.approx(np.linalg.norm(flat), rel=1e-6)
    assert max(norms) > 1.0  # logged before clipping to CLIP_NORM


def test_snapshot_cadence(micro_data, tmp_path, monkeypatch):
    # checkpoints and snapshots at every multiple of `every` plus the final
    # state, once each; every 0 gives the final state alone
    saved = []

    def recording_save(path, state, *args):
        saved.append(state.step)
        save_checkpoint(path, state, *args)

    monkeypatch.setattr(trainer, "save_checkpoint", recording_save)
    for T, every, want in ((25, 10, [0, 10, 20, 25]), (20, 10, [0, 10, 20]), (25, 0, [25])):
        saved.clear()
        ckpt_dir = tmp_path / f"T{T}_every{every}"
        _, sink = run_micro(micro_data, T=T, ptw_snapshot_every=every,
                            checkpoint_dir=str(ckpt_dir), train_checkpoint_every=every)
        assert [row["step"] for row in sink.snapshots[::len(UPOS_TAGS)]] == want, (T, every)
        assert len(sink.snapshots) == len(UPOS_TAGS) * len(want), (T, every)
        assert saved == want and checkpoint_steps(ckpt_dir) == want, (T, every)
        step0 = [r for r in sink.snapshots if r["step"] == 0]
        assert all(r["weight"] == 0.5 and r["cum_loss"] == 0.0 for r in step0)


def test_checkpoint_resume_identical(micro_data, tmp_path):
    full_state, full_sink = run_micro(micro_data, T=40)

    ckpt_dir = tmp_path / "ckpts"
    vocab = micro_data[3]
    half_state, half_sink = run_micro(micro_data, T=20)
    save_checkpoint(str(ckpt_dir / "step_00000020.ckpt"), half_state,
                    micro_cfg(vocab), vocab.content_hash())
    loaded, cfg_loaded, vocab_hash = load_checkpoint(str(ckpt_dir / "step_00000020.ckpt"))
    assert cfg_loaded == micro_cfg(vocab)
    assert vocab_hash == vocab.content_hash()
    resumed_state, resumed_sink = run_micro(micro_data, T=40, state=loaded)

    assert [r for r in full_sink.metrics if r["step"] >= 20] == resumed_sink.metrics
    for name in full_state.params:
        np.testing.assert_array_equal(full_state.params[name], resumed_state.params[name])
    np.testing.assert_array_equal(full_state.tracker.cum_loss, resumed_state.tracker.cum_loss)
    assert resumed_state.step == full_state.step


def test_train_step_reuses_one_gradient_set(micro_data, tmp_path):
    # the first step's backward makes the gradient arrays and every later step
    # writes into the same ones; a fresh or a loaded state holds none
    tokens, pos, special, vocab = micro_data
    cfg = RunConfig(train_T=5, train_batch_size=4, run_seed=5, **MICRO_MODEL)
    model_cfg = micro_cfg(vocab)
    state = fresh_state(model_cfg, cfg)
    assert state.grads is None
    train_step(state, cfg, model_cfg, tokens, pos, special, vocab)
    grads, arrays = state.grads, list(state.grads.values())
    assert list(grads) == list(state.params)
    for _ in range(3):
        train_step(state, cfg, model_cfg, tokens, pos, special, vocab)
        assert state.grads is grads
        assert all(a is b for a, b in zip(grads.values(), arrays, strict=True))
    path = tmp_path / "step_00000004.ckpt"
    save_checkpoint(str(path), state, model_cfg, vocab.content_hash())
    assert load_checkpoint(str(path))[0].grads is None


def test_checkpoint_roundtrip(micro_data, tmp_path):
    # a ptw run with non-default beta and mu, so every array and scalar is
    # non-trivial; train writes the final checkpoint with the model config it
    # derived from the run config's model keys and the corpus's L_seq
    vocab = micro_data[3]
    state, _ = run_micro(micro_data, T=12, strategy="ptw", ptw_beta=0.95, ptw_mu=2.0,
                         checkpoint_dir=str(tmp_path))
    loaded, cfg_loaded, vocab_hash = load_checkpoint(str(tmp_path / "step_00000012.ckpt"))
    assert cfg_loaded == micro_cfg(vocab)
    assert vocab_hash == vocab.content_hash()
    assert loaded.step == 12
    assert loaded.tracker.beta == 0.95 and loaded.tracker.mu == 2.0
    np.testing.assert_array_equal(loaded.tracker.cum_loss, state.tracker.cum_loss)
    np.testing.assert_array_equal(loaded.tracker.weights(), state.tracker.weights())
    assert list(loaded.params) == list(state.params)
    for name in state.params:
        for mine, theirs in ((loaded.params, state.params), (loaded.opt.m, state.opt.m),
                             (loaded.opt.v, state.opt.v)):
            assert mine[name].dtype == theirs[name].dtype, name
            np.testing.assert_array_equal(mine[name], theirs[name])


def test_load_params_reads_the_checkpoint_params(micro_data, tmp_path):
    vocab = micro_data[3]
    state, _ = run_micro(micro_data, T=12, strategy="ptw")
    path = tmp_path / "step_00000012.ckpt"
    save_checkpoint(str(path), state, micro_cfg(vocab), vocab.content_hash())
    loaded, cfg_loaded, vocab_hash = load_checkpoint(str(path))
    params, cfg_params, hash_params = load_params(str(path))
    assert (cfg_params, hash_params) == (cfg_loaded, vocab_hash)
    assert list(params) == list(loaded.params)
    for name in params:
        assert params[name].dtype == loaded.params[name].dtype, name
        np.testing.assert_array_equal(params[name], loaded.params[name])

    data = path.read_bytes()
    damaged = {
        "in the params": data[:len(data) // 5],
        "in the moments": data[:len(data) // 2],
        "one byte short": data[:-1],
        "one byte long": data + b"\0",
        "foreign": b"not a checkpoint\n" * 100,
    }
    for kind, content in damaged.items():
        bad = tmp_path / f"{kind.replace(' ', '_')}.ckpt"
        bad.write_bytes(content)
        for load in (load_params, load_checkpoint):
            with pytest.raises(ValueError, match=str(bad)):
                load(str(bad))


def test_schedule_masking_nothing_at_step_0_rejected(micro_data):
    # the library refuses what the CLI refuses, before any step is taken
    with pytest.raises(ConfigError, match=r"schedule\.floor"):
        run_micro(micro_data, T=10, kind=ScheduleKind.ASCENDING, schedule_floor=0.0)
    state, _ = run_micro(micro_data, T=3, kind=ScheduleKind.ASCENDING, schedule_floor=0.01,
                         lr_shape="linear")
    assert state.step == 3


def test_nan_loss_aborts_with_step(micro_data):
    # the huge lr is meant to overflow; silence numpy's complaints about it
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainAbort) as info:
        run_micro(micro_data, T=60, lr_base=1e6, lr_warmup=1)
    assert 0 <= info.value.step < 60


def test_nonfinite_parameters_abort_names_them(micro_data, monkeypatch):
    # a finite loss followed by an update that breaks the parameters
    def poisoned_step(self, params, grads, lr, t):
        for p in params.values():
            p[...] = np.nan

    monkeypatch.setattr(AdamW, "step", poisoned_step)
    with pytest.raises(TrainAbort, match="non-finite updated parameters at step 0") as info:
        run_micro(micro_data, T=5)
    assert info.value.step == 0


def test_ptw_weights_follow_cum_losses(micro_data):
    state, sink = run_micro(micro_data, T=60, strategy="ptw", ptw_snapshot_every=20)
    by_step = {}
    for row in sink.snapshots:
        by_step.setdefault(row["step"], []).append(row)
    for step, rows in by_step.items():
        if step == 0:
            continue
        losses = np.array([r["cum_loss"] for r in rows])
        weights = np.array([r["weight"] for r in rows])
        order = np.argsort(losses)
        strict = np.diff(losses[order]) > 1e-12
        assert np.all(np.diff(weights[order])[strict] > 0)


def test_loss_decreases_on_micro_run(micro_data):
    _, sink = run_micro(micro_data, T=300, lr_base=3e-3)
    first = np.mean([r["loss"] for r in sink.metrics[:30]])
    last = np.mean([r["loss"] for r in sink.metrics[-30:]])
    assert last < first


# ------------------------------------------------------------ evaluation

def test_eval_deterministic_and_untrained_near_lnV(micro_data):
    tokens, pos, _, vocab = micro_data
    cfg = micro_cfg(vocab)
    state = fresh_state(cfg, RunConfig(run_seed=3))
    r1 = eval_mlm(state.params, cfg, tokens[:40], pos[:40], vocab, seed=7)
    r2 = eval_mlm(state.params, cfg, tokens[:40], pos[:40], vocab, seed=7)
    assert r1 == r2
    lnV = math.log(vocab.size)
    assert r1["overall"] == pytest.approx(lnV, rel=0.03)
    for name, value in r1["per_category"].items():
        if value is not None:
            assert value == pytest.approx(lnV, rel=0.05), name


def test_eval_respects_ratio_and_seed(micro_data):
    tokens, pos, _, vocab = micro_data
    cfg = micro_cfg(vocab)
    state = fresh_state(cfg, RunConfig(run_seed=3))
    a = eval_mlm(state.params, cfg, tokens[:20], pos[:20], vocab, seed=1)
    b = eval_mlm(state.params, cfg, tokens[:20], pos[:20], vocab, seed=2)
    assert a["n_masked"] == b["n_masked"]  # same ratio, same sequences
    assert a != b  # different masks


def test_eval_independent_of_batch_size(micro_data):
    tokens, pos, _, vocab = micro_data
    cfg = micro_cfg(vocab)
    state = fresh_state(cfg, RunConfig(run_seed=3))
    reports = [eval_mlm(state.params, cfg, tokens[:40], pos[:40], vocab,
                        seed=4, batch_size=bs) for bs in (1, 7, 32)]
    assert reports[0] == reports[1] == reports[2]


def test_eval_independent_of_chunk_size_at_desk_shape():
    # the desk model's L and widths: each chunk's linears are one [chunk * L, n]
    # GEMM, so equal reports need BLAS rows that do not depend on the row count
    corpus = synth_corpus(800, 7)
    vocab = build_vocab(corpus, 1024)
    tokens, pos = pack_to_arrays(corpus, 128, vocab)
    assert tokens.shape[0] >= 12
    cfg = ModelConfig(vocab_size=vocab.size, L_seq=128)
    assert (cfg.hidden_dim, cfg.ff_dim) == (128, 512)
    state = fresh_state(cfg, RunConfig(run_seed=2))
    reports = [eval_mlm(state.params, cfg, tokens[:12], pos[:12], vocab,
                        seed=1, batch_size=bs) for bs in (1, 8, 32)]
    assert reports[0] == reports[1] == reports[2]


def test_eval_rejects_ratio_outside_open_unit_interval(micro_data):
    tokens, pos, _, vocab = micro_data
    cfg = micro_cfg(vocab)
    state = fresh_state(cfg, RunConfig(run_seed=3))
    for ratio in (0.0, 1.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="ratio"):
            eval_mlm(state.params, cfg, tokens[:4], pos[:4], vocab, ratio=ratio)
