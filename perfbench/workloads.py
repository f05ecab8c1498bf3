"""One benchmark workload, run in a fresh interpreter.

    python3 perfbench/workloads.py WORKLOAD --seed N --work DIR
        (--seconds S | --chunks K) [--trace] [--tiny]

``perfbench/run.py`` starts this process with the BLAS thread count pinned
in its environment, so the pin holds before numpy is first imported. The
workload makes its inputs from the seed, sets up (several times; the median
is ``setup_s``), then runs a closed loop: one caller that waits for each
chunk of work, back to back, until S seconds have passed or K chunks have
run. Every chunk with one seed does identical work and must produce
byte-identical outputs. The process writes ``DIR/result.json`` and, when
tracing, ``DIR/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tvmask  # noqa: E402
from tvmask import cli, corpus, schedule, trainer  # noqa: E402
from tvmask.masking import MaskPolicy, target_count  # noqa: E402
from tvmask.tracker import CategoryLossTracker  # noqa: E402

import costs  # noqa: E402
from tracer import Tracer, UnitClock, format_table, layer_table, self_times  # noqa: E402

VOCAB_SIZE = 8192
DESK_L = 128
DESK_BATCH = 8
STREAM_L = 512
STREAM_BATCH = 32
HELDOUT_SEED_OFFSET = 1_000_003

# per-category loss levels fed to the tracker on mask-stream: content words
# hard, function words easy, punctuation and other in between
STREAM_BASE_LOSS = np.array([5.0] * 7 + [2.0] * 7 + [3.0] * 3)


@dataclass(frozen=True)
class Sizes:
    desk_tokens: int = 1_000_000
    desk_T: int = 80
    desk_warmup: int = 10
    desk_checkpoint_every: int = 10
    stream_tokens: int = 250_000
    stream_batches: int = 100
    eval_train_tokens: int = 100_000
    eval_train_T: int = 20
    eval_checkpoint_every: int = 5
    heldout_tokens: int = 10_000
    setup_reps: int = 3


FULL = Sizes()
TINY = Sizes(desk_tokens=20_000, desk_T=10, desk_warmup=2, desk_checkpoint_every=5,
             stream_tokens=20_000, stream_batches=5, eval_train_tokens=20_000,
             eval_train_T=4, eval_checkpoint_every=2, heldout_tokens=3_000, setup_reps=2)


@dataclass
class Chunk:
    """One closed-loop unit of the timed phase and what its checks found."""

    wall: float = 0.0
    intervals: list = field(default_factory=list)  # seconds per unit
    units: int = 0
    failed: int = 0
    seqs: int = 0
    digest: str = ""
    loss: float = math.nan
    problems: list = field(default_factory=list)


class Bench:
    def __init__(self, seed: int, work: Path, sizes: Sizes, tracer: Tracer | None):
        self.seed = seed
        self.work = work
        self.sizes = sizes
        self.tracer = tracer

    def phase(self, run_id: str) -> None:
        if self.tracer is not None:
            self.tracer.run_id = run_id

    def synth(self, name: str, tokens: int, seed: int) -> Path:
        self.phase("input")
        path = self.work / name
        cli_ok(["synth", "--out", path, "--tokens", tokens, "--seed", seed])
        return path

    def setups(self, one_setup):
        """Run one_setup(out) setup_reps times, once when tracing (set-up only
        feeds per-layer medians then); returns (durations, last result).

        Every repetition builds into the same emptied directory, so paths
        recorded in the outputs do not depend on the repetition count."""
        out = self.work / "setup"
        times, result = [], None
        for i in range(1 if self.tracer else self.sizes.setup_reps):
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            self.phase(f"setup.{i}")
            t0 = time.perf_counter()
            result = one_setup(out)
            times.append(time.perf_counter() - t0)
        return times, result

    def closed_loop(self, one_chunk, seconds: float, chunks: int) -> list[Chunk]:
        """Back-to-back chunks until ``seconds`` pass (at least one), or
        exactly ``chunks`` of them. A chunk that raises counts all its units
        as failed and the loop goes on."""
        done: list[Chunk] = []
        start = time.perf_counter()
        while (len(done) < chunks) if chunks else (
                not done or time.perf_counter() - start < seconds):
            self.phase(f"timed.{len(done)}")
            chunk = Chunk()
            try:
                one_chunk(len(done), chunk)
            except Exception:  # the loop must finish and report the failure
                chunk.problems.append(traceback.format_exc())
                chunk.failed = chunk.units
            done.append(chunk)
        return done


def cli_ok(argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"tvmask {argv[0]} exited with code {code}")


def write_config(path: Path, prepared: Path, T: int, warmup: int, checkpoint_every: int,
                 seed: int) -> Path:
    """The desk model (2x128, 2 heads, ff 512, tied) at fixed p=0.15 with ptw masking."""
    path.write_text("\n".join([
        f"corpus.prepared = {prepared}",
        "schedule.kind = fixed",
        "schedule.p = 0.15",
        "mask.strategy = ptw",
        "model.layers = 2",
        "model.hidden_dim = 128",
        "model.heads = 2",
        "model.ff_dim = 512",
        f"train.T = {T}",
        f"train.batch_size = {DESK_BATCH}",
        f"train.checkpoint_every = {checkpoint_every}",
        f"lr.warmup = {warmup}",
        f"run.seed = {seed}",
    ]) + "\n", encoding="utf-8")
    return path


def prepare(corpus_path: Path, out: Path, L: int) -> Path:
    cli_ok(["prepare", "--corpus", corpus_path, "--out", out,
            "--vocab-size", VOCAB_SIZE, "--L-seq", L])
    return out


def digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()


def intervals_from(start: float, stamps) -> list[float]:
    marks = [start, *stamps]
    return [b - a for a, b in zip(marks, marks[1:])]


# ------------------------------------------------------------------ train-desk

def train_desk(b: Bench, clock: UnitClock, seconds: float, chunks: int):
    s = b.sizes
    text = b.synth("desk.txt", s.desk_tokens, b.seed)

    def setup(out):
        prep = prepare(text, out / "prep", DESK_L)
        return write_config(out / "desk.cfg", prep, s.desk_T, s.desk_warmup,
                            s.desk_checkpoint_every, b.seed)

    setup_s, cfg = b.setups(setup)
    window = max(1, s.desk_T // 5)
    # the process's first training steps sometimes stall for about a second
    # (first use of fresh memory); take that before the clock starts
    b.phase("warmup")
    cli_ok(["train", cfg, "--out", b.work / "warmup", "--steps", 2])
    shutil.rmtree(b.work / "warmup")

    def one_chunk(k, chunk: Chunk):
        chunk.units = s.desk_T
        run_dir = b.work / f"run{k}"
        n0 = len(clock.stamps)
        t0 = time.perf_counter()
        code = cli.main(["train", str(cfg), "--out", str(run_dir)])
        chunk.wall = time.perf_counter() - t0
        chunk.intervals = intervals_from(t0, clock.stamps[n0:])
        chunk.seqs = len(chunk.intervals) * DESK_BATCH
        if code != 0:
            raise RuntimeError(f"tvmask train exited with code {code}")
        metrics = (run_dir / "metrics.jsonl").read_bytes()
        rows = [json.loads(line) for line in metrics.splitlines()]
        losses = [row["loss"] for row in rows]
        if [row["step"] for row in rows] != list(range(s.desk_T)):
            chunk.problems.append(f"metrics rows are not steps 0..{s.desk_T - 1}")
        elif not all(math.isfinite(x) for x in losses):
            chunk.problems.append("non-finite loss in metrics.jsonl")
        elif not statistics.fmean(losses[-window:]) < statistics.fmean(losses[:window]):
            chunk.problems.append("last-window loss is not below the first-window loss")
        else:
            chunk.loss = statistics.fmean(losses[-window:])
        final = trainer.checkpoint_path(run_dir / "checkpoints", s.desk_T)
        state, _, _ = trainer.load_checkpoint(final)
        if state.step != s.desk_T:
            chunk.problems.append(f"final checkpoint holds step {state.step}, not {s.desk_T}")
        chunk.digest = digest(metrics, (run_dir / "snapshots.jsonl").read_bytes())
        if chunk.problems:
            chunk.failed = chunk.units
        shutil.rmtree(run_dir)

    return setup_s, b.closed_loop(one_chunk, seconds, chunks)


# ------------------------------------------------------------------ mask-stream

def synthetic_losses(mpos: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Seeded per-category losses for one batch; NaN marks absent categories."""
    losses = np.maximum(STREAM_BASE_LOSS + rng.normal(0.0, 0.3, STREAM_BASE_LOSS.size), 0.01)
    losses[np.bincount(mpos, minlength=losses.size) == 0] = np.nan
    return losses


def check_batch(batch, ratio, tokens, pos_ids, special) -> list[str]:
    """Every row's plan: target_count unique positions, none special, labels
    and categories equal to the originals, the rest of the row untouched."""
    rows, corrupted, mrows, mcols, labels, mpos = batch
    problems = []
    for j, row in enumerate(rows):
        sel = mrows == j
        cols = mcols[sel]
        want = target_count(ratio, int(np.count_nonzero(~special[row])))
        untouched = np.ones(tokens.shape[1], dtype=bool)
        untouched[cols] = False
        if (cols.size != want or np.unique(cols).size != cols.size
                or special[row, cols].any()
                or not np.array_equal(labels[sel], tokens[row, cols])
                or not np.array_equal(mpos[sel], pos_ids[row, cols])
                or not np.array_equal(corrupted[j, untouched], tokens[row, untouched])):
            problems.append(f"row {row}: plan breaks the mask-plan contract at ratio {ratio}")
    return problems


def mask_stream(b: Bench, clock, seconds: float, chunks: int):
    s = b.sizes
    text = b.synth("stream.txt", s.stream_tokens, b.seed)

    def setup(out):
        prep = prepare(text, out / "prep", STREAM_L)
        tokens, pos_ids, special, _ = corpus.load_packed(prep)
        return tokens, pos_ids, special, corpus.Vocabulary.load(prep / "vocab.txt")

    setup_s, (tokens, pos_ids, special, vocab) = b.setups(setup)
    n = s.stream_batches
    spec = schedule.ScheduleSpec(schedule.ScheduleKind.COSINE, p=0.15, T=n)
    policy = MaskPolicy(strategy="ptw")

    def one_chunk(k, chunk: Chunk):
        chunk.units = n
        tracker = CategoryLossTracker()
        loss_rng = np.random.default_rng(np.random.SeedSequence([b.seed, 0x57]))
        kept, stamps = [], []
        t0 = time.perf_counter()
        for t in range(n):
            ratio = schedule.ratio_at(spec, t)
            batch = trainer.make_batch(tokens, pos_ids, special, vocab, ratio, policy,
                                       tracker.weights(), b.seed, t, STREAM_BATCH)
            stamps.append(time.perf_counter())
            tracker.update(synthetic_losses(batch[5], loss_rng))
            kept.append((ratio, batch))
        chunk.wall = time.perf_counter() - t0
        chunk.intervals = intervals_from(t0, stamps)
        chunk.seqs = n * STREAM_BATCH
        blobs = []
        for ratio, batch in kept:
            found = check_batch(batch, ratio, tokens, pos_ids, special)
            chunk.failed += bool(found)
            chunk.problems.extend(found)
            blobs.append(repr(ratio).encode() + b"".join(np.ascontiguousarray(a).tobytes()
                                                         for a in batch))
        chunk.digest = digest(*blobs)
        chunk.loss = float(np.mean(tracker.cum_loss))

    return setup_s, b.closed_loop(one_chunk, seconds, chunks)


# ------------------------------------------------------------------ eval-heldout

def eval_heldout(b: Bench, clock: UnitClock, seconds: float, chunks: int):
    s = b.sizes
    text = b.synth("evaltrain.txt", s.eval_train_tokens, b.seed)
    heldout = b.synth("heldout.txt", s.heldout_tokens, b.seed + HELDOUT_SEED_OFFSET)

    def setup(out):
        prep = prepare(text, out / "prep", DESK_L)
        cfg = write_config(out / "train.cfg", prep, s.eval_train_T,
                           s.desk_warmup, s.eval_checkpoint_every, b.seed)
        cli_ok(["train", cfg, "--out", out / "run"])
        return out / "run"

    setup_s, run_dir = b.setups(setup)
    n_ckpt = len(os.listdir(run_dir / "checkpoints"))
    report_path = b.work / "eval_report.json"

    def one_chunk(k, chunk: Chunk):
        chunk.units = n_ckpt
        n0 = len(clock.stamps)
        t0 = time.perf_counter()
        code = cli.main(["eval", "--run", str(run_dir), "--heldout", str(heldout),
                         "--checkpoint", "all", "--out", str(report_path)])
        chunk.wall = time.perf_counter() - t0
        chunk.intervals = intervals_from(t0, clock.stamps[n0:])
        chunk.seqs = sum(clock.sizes[n0:])
        if code != 0:
            raise RuntimeError(f"tvmask eval exited with code {code}")
        raw = report_path.read_bytes()
        results = json.loads(raw)["checkpoints"]
        if len(results) != n_ckpt:
            chunk.problems.append(f"{len(results)} checkpoints evaluated, expected {n_ckpt}")
        if not all(math.isfinite(r["overall"]) for r in results):
            chunk.problems.append("non-finite held-out loss")
        if len({r["n_masked"] for r in results}) != 1:
            chunk.problems.append("n_masked differs across checkpoints")
        chunk.digest = digest(raw)
        chunk.loss = results[-1]["overall"]
        if chunk.problems:
            chunk.failed = chunk.units

    return setup_s, b.closed_loop(one_chunk, seconds, chunks)


# workload -> (function, unit boundary timestamped when tracing is off, unit size)
WORKLOADS = {
    "train-desk": (train_desk, "tvmask.cli.JsonlSink.on_metrics", None),
    "mask-stream": (mask_stream, None, None),
    "eval-heldout": (eval_heldout, "tvmask.cli.eval_mlm",
                     lambda args, kwargs: int(args[2].shape[0])),
}


# ------------------------------------------------------------------ per-layer

def step_breakdown(spans, keep):
    """Per train step inside ``trainer.train`` spans: wall time and the loop's
    own (untraced) time. A step runs from one forward pass to the next, so
    step 0 also holds the loop's prologue and the last step its epilogue."""
    child_spans: dict[int, list] = {}
    for span in spans:
        if span[3] >= 0 and spans[span[3]][0] == "trainer.train":
            child_spans.setdefault(span[3], []).append(span)
    walls, own = [], []
    for idx, (name, start, end, _, run_id) in enumerate(spans):
        if name != "trainer.train" or not keep(run_id):
            continue
        children = child_spans.get(idx, [])
        marks = [start] + [c[1] for c in children if c[0] == "net.forward_masked"][1:] + [end]
        busy = [0.0] * (len(marks) - 1)
        step = 0
        for child in children:  # children are in start order
            while step + 1 < len(busy) and child[1] >= marks[step + 1]:
                step += 1
            busy[step] += child[2] - child[1]
        for step, (a, z) in enumerate(zip(marks, marks[1:])):
            walls.append(z - a)
            own.append(z - a - busy[step])
    return walls, own


NOT_RUN = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "median_self_s": 0.0}


def per_layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Each layer metric from the timed phase, or from set-up when the layer
    does not run in the timed phase (prepare's corpus work on train-desk)."""
    spans = tracer.spans
    selfs = self_times(spans)
    tables = {
        "setup": layer_table(spans, selfs, lambda r: r.startswith("setup.")),
        "timed": layer_table(spans, selfs, lambda r: r.startswith("timed.")),
    }

    def phase_of(layer):
        return "timed" if layer in tables["timed"] else "setup"

    def row(layer):
        return tables[phase_of(layer)].get(layer, NOT_RUN)

    def median(layer, scale):
        return row(layer)["median_self_s"] * scale

    def count(layer, key, phase=None):
        return tracer.counts.get((phase or phase_of(layer), layer), {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in ("corpus.read", "corpus.vocab", "corpus.tokenize", "corpus.pack",
                  "corpus.save_packed", "corpus.load_packed", "masking.make_batch",
                  "net.forward_masked", "net.backward_masked", "net.nll_from_logits",
                  "net.dloss_dlogits", "optim.adamw", "optim.clip",
                  "trainer.save_checkpoint", "trainer.load_checkpoint", "trainer.eval_mlm"):
        out[f"{layer}.ms"] = median(layer, 1e3)
    for layer in ("schedule.ratio_at", "schedule.lr_at", "tracker.update", "tracker.weights",
                  "masking.build_plan", "masking.sample", "masking.corrupt",
                  "net.per_category_losses", "cli.sink"):
        out[f"{layer}.us"] = median(layer, 1e6)

    tok_phase = phase_of("corpus.tokenize")
    corpus_s = sum(r["self_s"] for name, r in tables[tok_phase].items()
                   if name.startswith("corpus.") and name != "corpus.load_packed")
    out["corpus.tokens_per_s"] = ratio(count("corpus.tokenize", "words"), corpus_s)
    out["corpus.unk_share"] = ratio(count("corpus.tokenize", "unk"),
                                    count("corpus.tokenize", "pieces"))
    batch_phase = phase_of("masking.make_batch")  # eval_mlm plans without make_batch
    out["masking.draws_per_batch"] = ratio(count("masking.sample", "draws", batch_phase),
                                           row("masking.make_batch")["calls"])
    out["masking.masked_per_seq"] = ratio(count("masking.build_plan", "masked"),
                                          row("masking.build_plan")["calls"])
    for layer in ("net.forward_masked", "net.backward_masked"):
        flop = count(layer, "flop")
        out[f"{layer}.gflop"] = ratio(flop, row(layer)["calls"]) / 1e9
        out[f"{layer}.gflops"] = ratio(flop, row(layer)["total_s"]) / 1e9
    out["optim.adamw.gbps"] = ratio(count("optim.adamw", "bytes"),
                                    row("optim.adamw")["total_s"]) / 1e9
    out["trainer.checkpoint_mb"] = ratio(count("trainer.save_checkpoint", "bytes"),
                                         row("trainer.save_checkpoint")["calls"]) / 1e6

    train_phase = phase_of("trainer.train")
    walls, own = step_breakdown(spans, lambda r: r.startswith(train_phase + "."))
    out["trainer.step_self.ms"] = statistics.median(own) * 1e3 if own else 0.0
    out["trace.step_coverage_pct"] = 100.0 * (1.0 - ratio(sum(own), sum(walls))) if walls else 0.0
    out["trace.absent_targets"] = len(tracer.absent)
    return out, tables


# ------------------------------------------------------------------ main

def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numba": importlib.util.find_spec("numba") is not None,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--chunks", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if not Path(tvmask.__file__).resolve().is_relative_to(SRC):
        print(f"error: tvmask imported from {tvmask.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    run, boundary, size = WORKLOADS[args.workload]
    clock = UnitClock(boundary, size) if boundary else None  # installed under the tracer
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    bench = Bench(args.seed, args.work.resolve(), TINY if args.tiny else FULL, tracer)
    setup_s, chunks = run(bench, clock, args.seconds, args.chunks)
    bench.phase("done")

    first = chunks[0]
    result = {
        "workload": args.workload,
        "env": environment(args.seed),
        "setup_s": setup_s,
        "chunks": len(chunks),
        "timed_s": sum(c.wall for c in chunks),
        "intervals_s": [x for c in chunks for x in c.intervals],
        "attempted": sum(c.units for c in chunks),
        "failed": sum(c.failed for c in chunks),
        "seqs": sum(c.seqs for c in chunks),
        "loss_final": first.loss,
        "digest": first.digest,
        "problems": [p for c in chunks for p in c.problems],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if any(c.digest != first.digest for c in chunks):
        result["problems"].append("chunks with the same seed produced different outputs")
    if tracer is not None:
        per_layer, tables = per_layer_metrics(tracer)
        per_layer["machine.sgemm_gflops"] = costs.sgemm_gflops()
        result["per_layer"] = per_layer
        result["tables"] = {phase: format_table(f"{args.workload} {phase} self time", table,
                                                tracer.absent if phase == "timed" else ())
                            for phase, table in tables.items()}
        result["counter_errors"] = tracer.counter_errors
        tracer.dump(bench.work / "spans.jsonl")
    (bench.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
