"""Adam with decoupled weight decay and global-norm gradient clipping."""

from __future__ import annotations

import numpy as np


def clip_global_norm(grads: dict, max_norm: float) -> float:
    """Scale gradients in place so the global L2 norm is <= max_norm; returns the norm."""
    sq = 0.0
    for g in grads.values():
        sq += float(np.vdot(g, g).real)
    norm = float(np.sqrt(sq))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
WEIGHT_DECAY = 0.01


class AdamW:
    """Weight decay applies only to matrices; vectors (biases, norm gains) are exempt."""

    def __init__(self, params: dict):
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict, grads: dict, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for name in sorted(params):
            g = grads[name]
            p = params[name]
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            if p.ndim >= 2:
                update = update + WEIGHT_DECAY * p
            p -= p.dtype.type(lr) * update.astype(p.dtype, copy=False)

    def state_dict(self) -> dict:
        return {
            "t": self.t,
            "m": {k: v.copy() for k, v in self.m.items()},
            "v": {k: v.copy() for k, v in self.v.items()},
        }

    @classmethod
    def from_state_dict(cls, params: dict, state: dict) -> "AdamW":
        """Restore from state_dict(); older checkpoints' hyper-parameter keys are ignored."""
        opt = cls(params)
        opt.t = int(state["t"])
        for k in opt.m:
            opt.m[k][:] = state["m"][k]
            opt.v[k][:] = state["v"][k]
        return opt
