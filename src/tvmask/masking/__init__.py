from tvmask.masking.plan import ACTION_KEEP, ACTION_NAMES, MaskPolicy, build_batch, target_count

__all__ = ["ACTION_KEEP", "ACTION_NAMES", "MaskPolicy", "build_batch", "target_count"]
