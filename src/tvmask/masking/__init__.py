from tvmask.masking.plan import (
    ACTION_KEEP,
    ACTION_MASK,
    ACTION_NAMES,
    ACTION_RANDOM,
    BatchPlan,
    MaskPolicy,
    build_batch,
    target_count,
)

__all__ = [
    "ACTION_MASK",
    "ACTION_RANDOM",
    "ACTION_KEEP",
    "ACTION_NAMES",
    "BatchPlan",
    "MaskPolicy",
    "target_count",
    "build_batch",
]
