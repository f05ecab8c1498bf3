"""Desk-scale MLM training loop.

Closes the feedback loop: schedule -> ratio -> mask plans -> loss ->
per-category tracker -> (for the ptw strategy) next batch's masking
weights. All randomness is derived from (run seed, step, slot) so runs
are bit-reproducible and checkpoint resume continues the exact stream.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from tvmask.config import RunConfig
from tvmask.masking import MaskPolicy, build_batch
from tvmask.model.net import (
    ModelConfig,
    backward_masked,
    forward_masked,
    init_params,
    nll_from_logits,
    per_category_losses,
    softmax_xent,
)
from tvmask.model.optim import AdamW, clip_global_norm
from tvmask.postags import GROUPS, UPOS_TAGS
from tvmask.schedule import ScheduleKind, lr_at, ratio_at
from tvmask.tracker import CategoryLossTracker

# stream tags keeping the seed lineages of batch choice, masking and eval apart
_TAG_BATCH = 1
_TAG_MASK = 2
_TAG_EVAL = 3

CHECKPOINT_VERSION = 4
CLIP_NORM = 1.0  # global gradient-norm cap


class TrainAbort(RuntimeError):
    """The loss or the update went non-finite at ``step``; the sink holds every earlier row."""

    def __init__(self, step: int, what: str):
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step


@dataclass
class TrainState:
    params: dict
    opt: AdamW
    tracker: CategoryLossTracker
    step: int = 0
    # the last step's gradients, kept until the next step's exist: when a step freed
    # all its arrays, malloc trimmed the heap and re-faulted it, 15 ms a desk step
    grads: dict | None = None


class ListSink:
    """Collects metrics in memory; tvmask.rundir.JsonlSink writes them to a run directory."""

    def __init__(self):
        self.metrics: list[dict] = []
        self.snapshots: list[dict] = []

    def on_metrics(self, row: dict) -> None:
        self.metrics.append(row)

    def on_snapshots(self, rows: list[dict]) -> None:
        self.snapshots.extend(rows)

    def flush(self) -> None:
        pass


def fresh_state(model_cfg: ModelConfig, cfg: RunConfig) -> TrainState:
    params = init_params(model_cfg, cfg.run_seed)
    tracker = CategoryLossTracker(beta=cfg.ptw_beta, mu=cfg.ptw_mu)
    return TrainState(params=params, opt=AdamW(params), tracker=tracker)


def _snapshot_rows(tracker: CategoryLossTracker, step: int) -> list[dict]:
    weights = tracker.weights()
    return [
        {"step": step, "category_name": UPOS_TAGS[k],
         "cum_loss": float(tracker.cum_loss[k]), "weight": float(weights[k])}
        for k in range(len(UPOS_TAGS))
    ]


def make_batch(tokens, pos_ids, special, vocab, ratio, policy, weights, seed, step, batch_size):
    """Pick rows and build their mask plans, all from seeds derived from (seed, step).

    Returns (rows, corrupted, mrows, mcols, labels, mpos): the chosen corpus
    rows, the corrupted [batch_size, L] input, and per masked position its
    batch row, column, original id and POS category.
    """
    n_seq = tokens.shape[0]
    batch_rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_BATCH, step]))
    if n_seq >= batch_size:
        rows = batch_rng.choice(n_seq, size=batch_size, replace=False)
    else:
        rows = batch_rng.integers(0, n_seq, size=batch_size)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_MASK, step]))
    plan = build_batch(tokens[rows], pos_ids[rows], special[rows], ratio, policy, vocab, rng,
                       weights_by_category=weights)
    mpos = pos_ids[rows[plan.rows], plan.cols].astype(np.int64)
    return rows, plan.corrupted_ids, plan.rows, plan.cols, plan.labels, mpos


def train_step(state: TrainState, cfg: RunConfig, model_cfg: ModelConfig,
               tokens, pos_ids, special, vocab) -> dict:
    """Train step state.step, advance the state, and return the step's metrics row.

    Raises TrainAbort if the loss or the updated parameters are non-finite.
    """
    t = state.step
    policy = cfg.mask_policy()
    ratio = ratio_at(cfg.schedule_spec(), t)
    weights = state.tracker.weights() if policy.strategy == "ptw" else None
    rows, corrupted, mrows, mcols, labels, mpos = make_batch(
        tokens, pos_ids, special, vocab, ratio, policy, weights,
        cfg.run_seed, t, cfg.train_batch_size,
    )
    pad_mask = tokens[rows] == vocab.pad_id
    logits, cache = forward_masked(state.params, model_cfg, corrupted, pad_mask, mrows, mcols)
    nll, dlogits = softmax_xent(logits, labels)
    loss = float(nll.mean())
    if not math.isfinite(loss):
        raise TrainAbort(t, "loss")
    state.tracker.update(per_category_losses(nll, mpos, mode=cfg.ptw_loss_mode))
    state.grads = grads = backward_masked(state.params, model_cfg, cache, dlogits)
    grad_norm = clip_global_norm(grads, CLIP_NORM)
    lr = lr_at(t, cfg.lr_base, cfg.lr_warmup, cfg.train_T, ScheduleKind(cfg.lr_shape))
    state.opt.step(state.params, grads, lr)
    for p in state.params.values():
        if not np.isfinite(p).all():
            raise TrainAbort(t, "updated parameters")
    state.step = t + 1
    return {"step": t, "loss": loss, "ratio": float(ratio), "lr": float(lr),
            "masked": int(labels.shape[0]), "grad_norm": grad_norm}


def train(cfg: RunConfig, model_cfg: ModelConfig, tokens, pos_ids, special, vocab,
          sink=None, state: TrainState | None = None, checkpoint_dir=None) -> TrainState:
    """Run (or continue) training to cfg.train_T steps; returns the final state.

    The sink is flushed before each checkpoint is written, so a run killed
    at any point has the rows of every step its latest checkpoint holds.
    """
    cfg.validate()
    T = cfg.train_T
    every = cfg.train_checkpoint_every
    if state is None:
        state = fresh_state(model_cfg, cfg)
    if sink is None:
        sink = ListSink()
    vocab_hash = vocab.content_hash()
    for t in range(state.step, T + 1):
        if checkpoint_dir and (t == T or every and t % every == 0):
            sink.flush()
            save_checkpoint(checkpoint_path(checkpoint_dir, t), state, model_cfg, vocab_hash)
        if cfg.ptw_snapshot_every and (t == T or t % cfg.ptw_snapshot_every == 0):
            sink.on_snapshots(_snapshot_rows(state.tracker, t))
        if t < T:
            sink.on_metrics(train_step(state, cfg, model_cfg, tokens, pos_ids, special, vocab))
    return state


def checkpoint_path(checkpoint_dir, step: int) -> str:
    return os.path.join(checkpoint_dir, f"step_{step:08d}.ckpt")


def checkpoint_steps(checkpoint_dir) -> list[int]:
    """Steps of the checkpoints in checkpoint_dir, ascending (none if it is missing)."""
    if not os.path.isdir(checkpoint_dir):
        return []
    return sorted(int(name[len("step_"):-len(".ckpt")]) for name in os.listdir(checkpoint_dir)
                  if name.startswith("step_") and name.endswith(".ckpt"))


def save_checkpoint(path, state: TrainState, model_cfg: ModelConfig, vocab_hash: str) -> None:
    """Write the state as consecutive .npy records: a JSON header, the tracker's
    cum_loss, then the params, AdamW m and AdamW v in the header's name order.
    AdamW's step count is not stored: each step makes one update, so it is the step."""
    names = list(state.params)
    header = {"version": CHECKPOINT_VERSION, "model_cfg": model_cfg.__dict__,
              "vocab_hash": vocab_hash, "step": state.step,
              "beta": state.tracker.beta, "mu": state.tracker.mu, "names": names}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        np.save(f, np.array(json.dumps(header)))
        np.save(f, state.tracker.cum_loss)
        for arrays in (state.params, state.opt.m, state.opt.v):
            for name in names:
                np.save(f, arrays[name])
    os.replace(tmp, path)


@contextlib.contextmanager
def _read_checkpoint(path):
    """Read a file save_checkpoint wrote up to its params; yields
    (header, model config, cum_loss, params, read_moments).

    read_moments() reads the next params-shaped record group (AdamW m,
    then v). Their records have the params' byte sizes, so the file's
    size is checked here, before they are read. Nothing in the file is
    unpickled. Any failure inside the block, or a file that is not a
    whole checkpoint of this version (truncated, an older pickled one, a
    foreign file), raises a ValueError naming the file.
    """
    with open(path, "rb") as f:
        try:
            header = json.loads(np.load(f, allow_pickle=False).item())
            if header["version"] != CHECKPOINT_VERSION:
                raise ValueError(f"version {header['version']}")
            model_cfg = ModelConfig(**header["model_cfg"])
            cum_loss = np.load(f, allow_pickle=False)

            def read_group():
                return {name: np.load(f, allow_pickle=False) for name in header["names"]}

            start = f.tell()
            params = read_group()
            whole = start + 3 * (f.tell() - start)
            size = os.fstat(f.fileno()).st_size
            if size != whole:
                raise ValueError(f"{size} bytes, not the {whole} its params imply")
            yield header, model_cfg, cum_loss, params, read_group
        except (ValueError, EOFError, KeyError, TypeError, AttributeError) as err:
            raise ValueError(f"{path} is not a version-{CHECKPOINT_VERSION} tvmask "
                             f"checkpoint ({type(err).__name__}: {err})") from None


def load_checkpoint(path) -> tuple[TrainState, ModelConfig, str]:
    """(state, model config, vocabulary hash) of a file save_checkpoint wrote.

    Raises a ValueError naming the file if it is not a whole checkpoint
    (see _read_checkpoint).
    """
    with _read_checkpoint(path) as (header, model_cfg, cum_loss, params, read_moments):
        tracker = CategoryLossTracker(beta=header["beta"], mu=header["mu"])
        tracker.cum_loss[:] = cum_loss
        opt = AdamW(params)
        opt.t, opt.m, opt.v = header["step"], read_moments(), read_moments()
        state = TrainState(params=params, opt=opt, tracker=tracker, step=header["step"])
        return state, model_cfg, header["vocab_hash"]


def load_params(path) -> tuple[dict, ModelConfig, str]:
    """(params, model config, vocabulary hash) of a checkpoint, for evaluation.

    The same reader as load_checkpoint, stopped before the AdamW moments;
    it refuses the same files.
    """
    with _read_checkpoint(path) as (header, model_cfg, _, params, _):
        return params, model_cfg, header["vocab_hash"]


def check_checkpoint_corpus(step, ckpt_cfg: ModelConfig, ckpt_hash, prepared, vocab_hash, L_seq):
    """Raise ValueError unless checkpoint ``step`` matches ``prepared``'s vocabulary and L_seq."""
    if ckpt_hash != vocab_hash:
        raise ValueError(f"checkpoint {step} was trained with another vocabulary than {prepared}")
    if ckpt_cfg.L_seq != L_seq:
        raise ValueError(f"checkpoint {step} was trained at L_seq {ckpt_cfg.L_seq}, "
                         f"but {prepared} is packed at L_seq {L_seq}")


def check_eval_ratio(ratio: float) -> None:
    """Raise ValueError unless the eval masking ratio lies in (0, 1)."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"eval ratio must be in (0, 1), got {ratio}")


def eval_mlm(params, model_cfg: ModelConfig, tokens, pos_ids, special, vocab,
             ratio: float = 0.15, seed: int = 0, batch_size: int = 8) -> dict:
    """Deterministic masked evaluation on a held-out packed corpus.

    Masks every sequence at the given fixed ratio in one plan drawn from
    a stream derived from ``seed``, so repeated calls give identical
    numbers whatever the ``batch_size`` of the forward passes. The
    forward passes run in chunks of 8 sequences by default: at the desk
    shape (L=128, ff 512) a chunk's widest float32 activation is 2 MB, an
    L2 cache's size rather than 8 MB at 32 sequences, and the activations
    and cache each chunk holds are a quarter as large. Reports mean
    token loss per category plus the function / non-function / other
    group means (means over each group's present categories). The ratio
    must lie in (0, 1).
    """
    check_eval_ratio(ratio)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_EVAL]))
    plan = build_batch(tokens, pos_ids, special, ratio, MaskPolicy(), vocab, rng)
    pad_mask = tokens == vocab.pad_id
    nll = []
    for start in range(0, tokens.shape[0], batch_size):
        end = start + batch_size
        lo, hi = np.searchsorted(plan.rows, [start, end])
        logits, _ = forward_masked(params, model_cfg, plan.corrupted_ids[start:end],
                                   pad_mask[start:end], plan.rows[lo:hi] - start,
                                   plan.cols[lo:hi])
        nll.append(nll_from_logits(logits, plan.labels[lo:hi]))
    nll = np.concatenate(nll)
    means = per_category_losses(nll, pos_ids[plan.rows, plan.cols])
    present = ~np.isnan(means)

    per_category = {UPOS_TAGS[k]: (means[k] if present[k] else None)
                    for k in range(len(UPOS_TAGS))}
    groups = {}
    for gname, ids in GROUPS.items():
        vals = [means[k] for k in ids if present[k]]
        groups[gname] = float(np.mean(vals)) if vals else None
    return {
        "overall": float(nll.sum()) / nll.size,
        "n_masked": int(nll.size),
        "per_category": per_category,
        "groups": groups,
    }
