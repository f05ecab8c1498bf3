"""The tvmask benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 12 --trace 0

Workloads, and why each was chosen, are in perfbench/README.md. Each run
starts the workload in a fresh interpreter (perfbench/workloads.py) with
the BLAS thread count pinned to min(nproc, 2).

--trace 0 prints every end-to-end metric. --trace 1 runs the workload
twice with one seed, untraced and then traced for the same number of
chunks, requires byte-identical outputs from the two, and prints the
per-layer metrics and self-time tables. The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-desk", "mask-stream", "eval-heldout")
MAX_BLAS_THREADS = 2
RUN_LIMIT_S = 175.0

END_TO_END = {
    "setup_s": "s",
    "seq_per_s": "1/s",
    "step_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "loss_final": "nats",
}

# printed with the end-to-end metrics but not bounded: on a shared machine
# its run-to-run spread reaches the largest bound a metric may have
REPORTED_ONLY = {"step_ms_p95": "ms"}

PER_LAYER = {
    "corpus.read.ms": "ms",
    "corpus.vocab.ms": "ms",
    "corpus.tokenize.ms": "ms",
    "corpus.pack.ms": "ms",
    "corpus.save_packed.ms": "ms",
    "corpus.load_packed.ms": "ms",
    "corpus.tokens_per_s": "1/s",
    "corpus.unk_share": "share",
    "schedule.ratio_at.us": "us",
    "schedule.lr_at.us": "us",
    "tracker.update.us": "us",
    "tracker.weights.us": "us",
    "masking.make_batch.ms": "ms",
    "masking.build_plan.us": "us",
    "masking.sample.us": "us",
    "masking.corrupt.us": "us",
    "masking.draws_per_batch": "count",
    "masking.masked_per_seq": "count",
    "net.forward_masked.ms": "ms",
    "net.backward_masked.ms": "ms",
    "net.nll_from_logits.ms": "ms",
    "net.dloss_dlogits.ms": "ms",
    "net.per_category_losses.us": "us",
    "net.forward_masked.gflop": "GFLOP",
    "net.backward_masked.gflop": "GFLOP",
    "net.forward_masked.gflops": "GFLOP/s",
    "net.backward_masked.gflops": "GFLOP/s",
    "optim.adamw.ms": "ms",
    "optim.clip.ms": "ms",
    "optim.adamw.gbps": "GB/s",
    "trainer.save_checkpoint.ms": "ms",
    "trainer.checkpoint_mb": "MB",
    "trainer.load_checkpoint.ms": "ms",
    "trainer.eval_mlm.ms": "ms",
    "trainer.step_self.ms": "ms",
    "cli.sink.us": "us",
    "machine.sgemm_gflops": "GFLOP/s",
    "trace.overhead_pct": "%",
    "trace.step_coverage_pct": "%",
    "trace.absent_targets": "count",
}


class BenchError(Exception):
    """The run cannot produce a result; exit non-zero without one."""


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(args, work: Path, deadline: float, trace: bool, chunks: int = 0) -> dict:
    """One workload process in ``work`` (emptied first); returns its result."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    threads = str(min(len(os.sched_getaffinity(0)), MAX_BLAS_THREADS))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    cmd = [sys.executable, str(HERE / "workloads.py"), args.workload,
           "--seed", str(args.seed), "--work", str(work)]
    cmd += ["--chunks", str(chunks)] if chunks else ["--seconds", str(args.seconds)]
    cmd += ["--trace"] if trace else []
    cmd += ["--tiny"] if args.tiny else []
    try:
        # the workload's own output would break the one-JSON-line contract
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} exited with code {proc.returncode}")
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def end_to_end(result: dict) -> dict:
    steps_ms = [x * 1e3 for x in result["intervals_s"]]
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "seq_per_s": result["seqs"] / result["timed_s"],
        "step_ms_p50": statistics.median(steps_ms),
        "step_ms_p95": percentile(steps_ms, 95),
        "peak_rss_mb": result["peak_rss_mb"],
        "loss_final": result["loss_final"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--work", type=Path, help="scratch directory (default .perfbench_work/)")
    parser.add_argument("--keep", action="store_true", help="keep the scratch directory")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "tvmask" / "__init__.py").is_file():
        print(f"error: no tvmask sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = (args.work or ROOT / ".perfbench_work" / args.workload).resolve()
    try:
        plain = run_workload(args, work, deadline, trace=False)
        runs = [plain]
        if args.trace:
            # same path, so paths recorded in the outputs are the same too
            traced = run_workload(args, work, deadline, trace=True, chunks=plain["chunks"])
            runs.append(traced)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)

    problems = [p for r in runs for p in r["problems"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"env {json.dumps(plain['env'], sort_keys=True)}")
    print(f"workload {args.workload}: {plain['chunks']} chunks, {plain['attempted']} units "
          f"({len(plain['intervals_s'])} timed), {plain['timed_s']:.2f} s timed, "
          f"setup runs {', '.join(f'{s:.2f}' for s in plain['setup_s'])} s")
    if args.trace:
        if traced["digest"] != plain["digest"]:
            problems.append("traced outputs differ from untraced outputs")
        metrics = dict(traced["per_layer"])
        metrics["trace.overhead_pct"] = 100.0 * (traced["timed_s"] / plain["timed_s"] - 1.0)
        for table in traced["tables"].values():
            print(table)
        for layer, error in traced["counter_errors"].items():
            print(f"counter for {layer} failed: {error.strip()}")
        units = PER_LAYER
    else:
        metrics = end_to_end(plain)
        units = END_TO_END
    for name, unit in units.items():
        print(f"{name:<28} {metrics[name]:>14.6g} {unit}")
    if not args.trace:
        beyond = len(plain["intervals_s"]) // 20
        for name, unit in REPORTED_ONLY.items():
            print(f"{name:<28} {metrics[name]:>14.6g} {unit} ({beyond} units beyond, not bounded)")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} units failed)")
    for problem in problems:
        print(f"check failed: {problem.strip()}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        # a failed check can leave a metric undefined (NaN), which JSON cannot hold
        "metrics": {name: {"value": metrics[name] if math.isfinite(metrics[name]) else None,
                           "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
