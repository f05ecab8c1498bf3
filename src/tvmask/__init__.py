"""Time-variant masking for masked-language-model pre-training.

Provides masking-ratio decay schedules, POS-weighted masking driven by
smoothed per-category losses, and a small numpy MLM trainer that closes
the loss -> weight -> mask feedback loop.
"""

__version__ = "0.1.0"

from tvmask.postags import UPOS_TAGS, pos_id
from tvmask.schedule import ScheduleKind, ScheduleSpec, expected_mass, ratio_at
from tvmask.tracker import CategoryLossTracker

__all__ = [
    "UPOS_TAGS",
    "pos_id",
    "ScheduleKind",
    "ScheduleSpec",
    "ratio_at",
    "expected_mass",
    "CategoryLossTracker",
]
