"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke_test.py

Runs every workload through run.py with tracing on and checks that the run
is correct, reports every per-layer metric, and records spans that nest:
each span lies inside its parent's interval and shares its run id. Exits
non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


class SmokeFailure(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def check_nesting(spans) -> None:
    for i, (name, start, end, parent, run_id) in enumerate(spans):
        check(start <= end, f"span {i} ({name}) ends before it starts")
        if parent < 0:
            continue
        check(parent < i, f"span {i} ({name}) has a later parent")
        p_name, p_start, p_end, _, p_run = spans[parent]
        check(p_start <= start and end <= p_end,
              f"span {i} ({name}) is not inside its parent {p_name}")
        check(run_id == p_run, f"span {i} ({name}) has another run id than {p_name}")


def smoke(workload: str, work: Path) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1", "--tiny", "--work", str(work), "--keep"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=run.RUN_LIMIT_S + 5)
    check(proc.returncode == 0, f"{workload}: exit code {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(result["correct"] and result["failed"] == 0, f"{workload}: {proc.stdout}")
    check(set(result["metrics"]) == set(run.PER_LAYER), f"{workload}: per-layer metrics differ")
    with open(work / "spans.jsonl", encoding="utf-8") as f:
        spans = [json.loads(line) for line in f]
    check(any(s[4].startswith("timed.") for s in spans), f"{workload}: no timed spans")
    check_nesting(spans)
    print(f"{workload}: ok, {len(spans)} spans nest")


def main() -> int:
    root = run.ROOT / ".perfbench_work" / "smoke"
    try:
        for workload in run.WORKLOADS:
            smoke(workload, root / workload)
    except SmokeFailure as err:
        print(f"FAIL {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
