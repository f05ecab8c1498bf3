"""Span tracer for the benchmark, driven by one table of dotted wrap targets.

Each target names a function or method at the import site its caller looks
it up through (``tvmask.trainer.forward_masked`` is the name ``train()``
calls, not the definition in ``tvmask.model.net``), so wrapping the
attribute intercepts exactly the calls made by that caller. Spans are kept
in memory as ``(name, start, end, parent, run_id)`` tuples and written out
once, at the end of the run. A target that no longer exists is reported as
absent instead of failing the run, so functions can be renamed or deleted
without breaking the harness.

Nothing here changes what a wrapped call computes: wrappers pass arguments
and results through untouched, and counters only read them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
import traceback

import costs

# (layer name, dotted target, counter or None). A counter maps
# (args, kwargs, result) to increments of the layer's named counts.
TARGETS = [
    ("cli.prepare", "tvmask.cli.cmd_prepare", None),
    ("cli.train", "tvmask.cli.cmd_train", None),
    ("cli.eval", "tvmask.cli.cmd_eval", None),
    ("cli.sink", "tvmask.cli.JsonlSink.on_metrics", None),
    ("cli.sink", "tvmask.cli.JsonlSink.on_snapshots", None),
    ("corpus.read", "tvmask.cli.load_tagged_corpus", None),
    ("corpus.vocab", "tvmask.cli.build_vocab", None),
    ("corpus.tokenize", "tvmask.cli.tokenize_aligned", costs.count_tokenize),
    ("corpus.pack", "tvmask.cli.pack_to_arrays", None),
    ("corpus.save_packed", "tvmask.cli.save_packed", None),
    ("corpus.load_packed", "tvmask.cli.load_packed", None),
    ("corpus.load_packed", "tvmask.corpus.load_packed", None),
    ("schedule.ratio_at", "tvmask.trainer.ratio_at", None),
    ("schedule.ratio_at", "tvmask.schedule.ratio_at", None),
    ("schedule.lr_at", "tvmask.trainer.lr_at", None),
    ("tracker.update", "tvmask.tracker.CategoryLossTracker.update", None),
    ("tracker.weights", "tvmask.tracker.CategoryLossTracker.weights", None),
    ("masking.make_batch", "tvmask.trainer.make_batch", None),
    ("masking.build_plan", "tvmask.trainer.build_plan", costs.count_build_plan),
    ("masking.sample", "tvmask.masking.kernels.sample_proportional", costs.count_sample),
    ("masking.corrupt", "tvmask.masking.plan.corrupt", None),
    ("net.forward_masked", "tvmask.trainer.forward_masked", costs.count_forward),
    ("net.backward_masked", "tvmask.trainer.backward_masked", costs.count_backward),
    ("net.nll_from_logits", "tvmask.trainer.nll_from_logits", None),
    ("net.dloss_dlogits", "tvmask.trainer.dloss_dlogits", None),
    ("net.per_category_losses", "tvmask.trainer.per_category_losses", None),
    ("optim.adamw", "tvmask.model.optim.AdamW.step", costs.count_adamw),
    ("optim.clip", "tvmask.trainer.clip_global_norm", None),
    ("trainer.train", "tvmask.cli.train", None),
    ("trainer.init_state", "tvmask.trainer.fresh_state", None),
    ("trainer.save_checkpoint", "tvmask.trainer.save_checkpoint", costs.count_checkpoint),
    ("trainer.load_checkpoint", "tvmask.cli.load_checkpoint", None),
    ("trainer.eval_mlm", "tvmask.cli.eval_mlm", None),
]


def resolve(dotted: str):
    """(owner, attribute name, current value) for a dotted target, or None.

    The longest importable prefix is the module; the rest is an attribute
    chain, so ``pkg.mod.Class.method`` resolves to (Class, "method", ...).
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


class UnitClock:
    """Timestamps each return of one target: the benchmark's only probe when
    tracing is off. ``size`` optionally maps (args, kwargs) to the unit's size."""

    def __init__(self, dotted: str, size=None):
        found = resolve(dotted)
        if found is None:
            raise LookupError(f"unit boundary {dotted} does not exist")
        owner, attr, fn = found
        self.stamps: list[float] = []
        self.sizes: list[int] = []
        stamps, sizes, clock = self.stamps, self.sizes, time.perf_counter

        @functools.wraps(fn)
        def clocked(*args, **kwargs):
            result = fn(*args, **kwargs)
            stamps.append(clock())
            if size is not None:
                sizes.append(size(args, kwargs))
            return result

        setattr(owner, attr, clocked)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.run_id = ""
        self.absent: list[str] = []
        self.counts: dict[tuple[str, str], dict[str, float]] = {}
        self.counter_errors: dict[str, str] = {}
        self._stack: list[int] = []

    def install(self, targets=TARGETS) -> None:
        # resolve everything first, so a name wrapped twice is never wrapped
        # inside its own wrapper
        found = [(name, dotted, counter, resolve(dotted)) for name, dotted, counter in targets]
        for name, dotted, counter, hit in found:
            if hit is None:
                self.absent.append(dotted)
                continue
            owner, attr, fn = hit
            wrap = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap
            setattr(owner, attr, wrap(name, fn, counter))

    def _count(self, name, counter, args, kwargs, result) -> None:
        try:
            increments = counter(args, kwargs, result)
        except Exception:  # a changed signature must not stop the traced run
            self.counter_errors.setdefault(name, traceback.format_exc(limit=1))
            return
        # keyed by phase (the run id's prefix) and layer
        totals = self.counts.setdefault((self.run_id.split(".")[0], name), {})
        for key, value in increments.items():
            totals[key] = totals.get(key, 0) + value

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # reserved, so children get later indices
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            if counter is not None:
                self._count(name, counter, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, name, fn, counter):
        """One span from the first item to exhaustion; the span is on the
        stack only while the generator runs, so work the consumer does
        between items is never parented to it (but lies inside its interval:
        tvmask's callers consume these generators with ``list()``)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            start = clock()
            try:
                while True:
                    stack.append(idx)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                    yield item
            finally:
                spans[idx] = (name, start, clock(), parent, self.run_id)

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_table(spans, selfs, keep) -> dict[str, dict]:
    """Per layer over the spans whose run id passes ``keep``:
    calls, total and self seconds, and the median self time per call."""
    per: dict[str, list] = {}
    for span, s in zip(spans, selfs):
        if keep(span[4]):
            per.setdefault(span[0], []).append((span[2] - span[1], s))
    return {
        name: {
            "calls": len(rows),
            "total_s": sum(d for d, _ in rows),
            "self_s": sum(s for _, s in rows),
            "median_self_s": statistics.median(s for _, s in rows),
        }
        for name, rows in per.items()
    }


def format_table(title: str, table: dict, absent) -> str:
    lines = [f"{title}:",
             f"  {'layer':<26}{'calls':>8}{'total_ms':>12}{'self_ms':>12}{'self%':>8}"
             f"{'median_us':>12}"]
    wall = sum(row["self_s"] for row in table.values()) or 1.0
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name:<26}{row['calls']:>8}{row['total_s'] * 1e3:>12.1f}"
                     f"{row['self_s'] * 1e3:>12.1f}{100 * row['self_s'] / wall:>8.1f}"
                     f"{row['median_self_s'] * 1e6:>12.1f}")
    lines.extend(f"  absent: {dotted}" for dotted in absent)
    return "\n".join(lines)
