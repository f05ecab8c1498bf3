from tvmask.model.net import ModelConfig, forward_masked, backward_masked, init_params, per_category_losses
from tvmask.model.optim import AdamW, clip_global_norm

__all__ = [
    "ModelConfig",
    "init_params",
    "forward_masked",
    "backward_masked",
    "per_category_losses",
    "AdamW",
    "clip_global_norm",
]
