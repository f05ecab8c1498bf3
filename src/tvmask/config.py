"""Run configuration: flat "section.key = value" text files.

One file fully determines a run; the config, every key explicit, is
copied into the run directory so any artifact can be regenerated from
(inputs, config, seed).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields

import numpy as np

from tvmask.masking import MaskPolicy
from tvmask.model.net import LOSS_MODES, ModelConfig
from tvmask.schedule import ScheduleKind, ScheduleSpec, ratio_at, shape
from tvmask.tracker import CategoryLossTracker


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Everything that defines a run; field ``section_key`` is file key ``section.key``."""

    corpus_prepared: str = ""
    schedule_kind: str = "fixed"
    schedule_p: float = 0.15
    schedule_floor: float = 0.0
    ptw_beta: float = 0.99
    ptw_mu: float = 1.0
    ptw_loss_mode: str = "per-token-mean"
    ptw_snapshot_every: int = 10
    mask_strategy: str = "random"
    model_layers: int = 2
    model_hidden_dim: int = 128
    model_heads: int = 2
    model_ff_dim: int = 512
    lr_base: float = 1e-3
    lr_warmup: int = 100
    lr_shape: str = "fixed"      # constant after warmup, whatever schedule.kind is
    train_T: int = 2000
    train_batch_size: int = 16
    train_checkpoint_every: int = 500
    run_seed: int = 1234

    def schedule_spec(self) -> ScheduleSpec:
        """The masking-ratio schedule, spanning the run's train.T steps."""
        return ScheduleSpec(ScheduleKind(self.schedule_kind), p=self.schedule_p,
                            T=self.train_T, floor=self.schedule_floor)

    def mask_policy(self) -> MaskPolicy:
        """How positions are picked."""
        return MaskPolicy(strategy=self.mask_strategy)

    def model_config(self, vocab_size: int, L_seq: int) -> ModelConfig:
        """The encoder for a prepared corpus with this vocabulary size and L_seq."""
        return ModelConfig(layers=self.model_layers, hidden_dim=self.model_hidden_dim,
                           heads=self.model_heads, ff_dim=self.model_ff_dim,
                           vocab_size=vocab_size, L_seq=L_seq)

    def validate(self) -> None:
        """Build the library objects this config describes; each one's own
        checks are the rules, reported as a ConfigError naming the keys."""
        _build("schedule.kind", ScheduleKind, self.schedule_kind)
        lr_shape = _build("lr.shape", ScheduleKind, self.lr_shape)
        if self.ptw_loss_mode not in LOSS_MODES:
            raise ConfigError(f"unknown ptw.loss_mode {self.ptw_loss_mode!r}")
        _build("mask.strategy", self.mask_policy)
        _build("ptw.beta / ptw.mu", CategoryLossTracker, self.ptw_beta, self.ptw_mu)
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is int and value < 0:
                raise ConfigError(f"{_key(f.name)} must be >= 0, got {value}")
        if self.train_batch_size < 1:
            raise ConfigError("train.batch_size must be >= 1")
        lr_max = float(np.finfo(np.float32).max)  # the model and AdamW run in float32
        if not 0.0 < self.lr_base <= lr_max:
            raise ConfigError(f"lr.base must be in (0, {lr_max:.4g}], got {self.lr_base}")
        _build("model.layers / model.hidden_dim / model.heads / model.ff_dim",
               self.model_config, 1, 1)  # placeholder vocabulary size and L_seq
        spec = _build("schedule.p / train.T / schedule.floor", self.schedule_spec)
        if ratio_at(spec, 0) == 0.0:
            raise ConfigError(f"schedule.kind = {self.schedule_kind} masks no token at step 0 "
                              f"with schedule.floor = {spec.floor}; set schedule.floor > 0")
        if shape(lr_shape, 0.0) == 0.0:
            raise ConfigError(f"lr.shape = {lr_shape.value} drops the learning rate to 0 when "
                              f"warmup ends; pick a shape that starts at its peak")


def _build(keys: str, make, *args):
    """make(*args), its ValueError reported as a ConfigError naming the config keys."""
    try:
        return make(*args)
    except ValueError as err:
        raise ConfigError(f"{keys}: {err}") from None


def _key(name: str) -> str:
    """File key of a field: the first "_" becomes the section dot."""
    return name.replace("_", ".", 1)


def differing_keys(a: RunConfig, b: RunConfig) -> list[str]:
    """File keys whose values differ between two configs, in file order."""
    return [_key(f.name) for f in fields(a) if getattr(a, f.name) != getattr(b, f.name)]


def to_text(cfg: RunConfig) -> str:
    """Every key, one per line in field order; a float is written as its repr,
    so it reads back exactly."""
    return "".join(f"{_key(f.name)} = {getattr(cfg, f.name)}\n" for f in fields(cfg))


def from_text(text: str) -> RunConfig:
    cfg = RunConfig()
    names = {_key(f.name): f.name for f in fields(cfg)}
    set_on = {}  # key -> line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in names:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in set_on:
            raise ConfigError(f"line {lineno}: {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
        name = names[key]
        try:  # a value is an int, a float or a str, parsed by its default's type
            setattr(cfg, name, type(getattr(cfg, name))(raw))
        except ValueError as err:
            raise ConfigError(f"line {lineno}: {key}: {err}") from None
    return cfg


@contextlib.contextmanager
def naming(path):
    """A ConfigError raised inside, its message prefixed with the file it came from."""
    try:
        yield
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None


def read(path) -> RunConfig:
    """The config in a file, not yet validated. A leading UTF-8 byte-order
    mark is ignored."""
    with open(path, encoding="utf-8-sig") as f, naming(path):
        return from_text(f.read())


def load(path) -> RunConfig:
    cfg = read(path)
    with naming(path):
        cfg.validate()
    return cfg


def save(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(to_text(cfg))
