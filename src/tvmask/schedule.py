"""Masking-ratio and learning-rate schedules.

Both follow one unit-peak ``shape`` over run progress s in [0, 1]. The
masking ratio at step t in [0, T] scales it by a peak: decaying kinds
start at twice the base ratio p and end at (or near) zero, so the mean
ratio over a full run stays close to p and a decayed run masks about as
many tokens as a fixed-p run. The learning rate warms up linearly, then
scales the shape of its own kind by the base rate.
"""

from __future__ import annotations

import enum
import math
import statistics
from dataclasses import dataclass

_ONE_EXCLUSIVE = math.nextafter(1.0, 0.0)  # ratio 1.0 would leave no context


class ScheduleKind(enum.Enum):
    FIXED = "fixed"
    LINEAR = "linear"
    COSINE = "cosine"
    ASCENDING = "ascending"


@dataclass(frozen=True)
class ScheduleSpec:
    """Schedule family member: kind, base ratio p, horizon T, minimum ratio."""

    kind: ScheduleKind
    p: float = 0.15
    T: int = 1
    floor: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.p <= 0.5:
            raise ValueError(f"base ratio p must be in (0, 0.5], got {self.p}")
        if self.T < 1:
            raise ValueError(f"total steps T must be >= 1, got {self.T}")
        if not 0.0 <= self.floor < 2.0 * self.p:
            raise ValueError(f"floor must be in [0, 2p), got {self.floor}")


def shape(kind: ScheduleKind, s: float) -> float:
    """Unit-peak schedule shape at run progress s in [0, 1]."""
    if kind is ScheduleKind.FIXED:
        return 1.0
    if kind is ScheduleKind.LINEAR:
        return 1.0 - s
    if kind is ScheduleKind.COSINE:
        return 0.5 * (1.0 + math.cos(math.pi * s))
    if kind is ScheduleKind.ASCENDING:
        return s
    raise ValueError(f"unhandled schedule kind {kind}")  # pragma: no cover


def ratio_at(spec: ScheduleSpec, t: int) -> float:
    """Masking ratio at step t, clamped to [spec.floor, 1).

    The peak is p for the fixed kind and 2p otherwise; cosine adds 0.02
    on top, so its late batches still carry masked tokens. t may equal T
    (final checkpoint boundary); anything outside [0, T] is an error.
    """
    if t < 0 or t > spec.T:
        raise ValueError(f"step {t} outside [0, {spec.T}]")
    peak = spec.p if spec.kind is ScheduleKind.FIXED else 2.0 * spec.p
    raw = peak * shape(spec.kind, t / spec.T)
    if spec.kind is ScheduleKind.COSINE:
        raw += 0.02
    if raw < spec.floor:
        return spec.floor
    if raw >= 1.0:
        return _ONE_EXCLUSIVE
    return raw


def lr_at(t: int, base_lr: float, warmup: int, T: int, kind: ScheduleKind) -> float:
    """Linear warmup, then base_lr times the schedule shape over the remaining steps."""
    if warmup > 0 and t < warmup:
        return base_lr * t / warmup
    if T <= warmup:
        return base_lr
    s = (t - warmup) / (T - warmup)
    return base_lr * shape(kind, min(max(s, 0.0), 1.0))


def expected_mass(spec: ScheduleSpec) -> float:
    """Mean ratio over steps 0..T-1, i.e. the token budget per maskable token."""
    # statistics.mean accumulates exactly, so a constant schedule averages
    # to exactly p instead of picking up float summation drift
    return statistics.mean(ratio_at(spec, t) for t in range(spec.T))


def schedule_rows(spec: ScheduleSpec):
    """(t, ratio) pairs for t = 0..T inclusive, for CSV export / plotting."""
    for t in range(spec.T + 1):
        yield t, ratio_at(spec, t)
