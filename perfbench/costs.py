"""Counts recorded at layer boundaries, and the analytic costs they feed.

FLOPs are computed, not measured: the matmul work of the desk encoder from
``ModelConfig`` and the batch shape, with elementwise work left out. Bytes
for AdamW are the minimum traffic of one update: read parameter, gradient
and both moments, write parameter and both moments. Both are reported next
to the float32 GEMM rate measured on the same machine in the same run.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def forward_flop(cfg, batch: int, seq_len: int, n_masked: int) -> float:
    """Matmul FLOPs of ``forward_masked``: the encoder on every position,
    the MLM head only on the ``n_masked`` selected ones."""
    H, F, V = cfg.hidden_dim, cfg.ff_dim, cfg.vocab_size
    tokens = batch * seq_len
    per_layer = 2 * tokens * (4 * H * H + 2 * seq_len * H + 2 * H * F)
    head = 2 * n_masked * H * (H + V)
    return float(cfg.layers * per_layer + head)


def count_forward(args, kwargs, result):
    cfg = _arg(args, kwargs, 1, "cfg")
    token_ids = _arg(args, kwargs, 2, "token_ids")
    mrows = _arg(args, kwargs, 4, "mrows")
    return {"flop": forward_flop(cfg, *token_ids.shape, len(mrows))}


def count_backward(args, kwargs, result):
    # every forward matmul Y = X W has two backward matmuls (dX, dW) of its size
    cfg = _arg(args, kwargs, 1, "cfg")
    cache = _arg(args, kwargs, 2, "cache")
    return {"flop": 2 * forward_flop(cfg, *cache["token_ids"].shape, len(cache["mrows"]))}


def count_adamw(args, kwargs, result):
    params = _arg(args, kwargs, 1, "params")
    return {"bytes": 7 * sum(p.nbytes for p in params.values())}


def count_tokenize(args, kwargs, result):
    vocab = _arg(args, kwargs, 1, "vocab")
    return {"words": len(_arg(args, kwargs, 0, "sentence")),
            "pieces": int(result.token_ids.size),
            "unk": int(np.count_nonzero(result.token_ids == vocab.unk_id))}


def count_sample(args, kwargs, result):
    return {"draws": int(_arg(args, kwargs, 1, "count"))}


def count_build_plan(args, kwargs, result):
    return {"masked": int(result.indices.size)}


def count_checkpoint(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def sgemm_gflops(n: int = 512, seconds: float = 0.5) -> float:
    """Median float32 GEMM rate over repeated n x n x n products."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    out = np.empty((n, n), dtype=np.float32)
    np.matmul(a, b, out=out)  # warm the BLAS thread pool
    rates = []
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop or len(rates) < 5:
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        rates.append(2.0 * n**3 / (time.perf_counter() - t0) / 1e9)
    return statistics.median(rates)
