"""The run directory's layout, and its one reader and writer: the config,
every key explicit, a JSON row per step and per category snapshot,
checkpoints in tvmask.trainer's format, eval's default report and, while
train writes the run, its lock. Every refusal is a ValueError naming the
directory or file.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import shutil

from tvmask import config as cfgmod
from tvmask.postags import UPOS_TAGS
from tvmask.trainer import checkpoint_steps, saves_at

CONFIG = "config.txt"
METRICS = "metrics.jsonl"
SNAPSHOTS = "snapshots.jsonl"
CHECKPOINTS = "checkpoints"
EVAL_REPORT = "eval_report.json"
LOCK = "lock"


def checkpoint_dir(run_dir) -> str:
    return os.path.join(run_dir, CHECKPOINTS)


def read_config(run_dir) -> cfgmod.RunConfig:
    """The config of an existing run, read from its config.txt."""
    path = os.path.join(run_dir, CONFIG)
    if not os.path.exists(path):
        raise ValueError(f"not a run directory (no config.txt): {run_dir}")
    return cfgmod.load(path)


def resume_step(run_dir, cfg: cfgmod.RunConfig, resume: bool, force: bool) -> int | None:
    """The checkpoint step a train of cfg in run_dir resumes from, or None
    for a fresh start, which empties checkpoints/ and so refuses a directory
    with a config.txt or a non-empty checkpoints/ unless forced. A resume must
    keep the run's config but for the corpus path (the vocabulary hash guards it)."""
    has_run = os.path.exists(os.path.join(run_dir, CONFIG))
    ckpt_dir = checkpoint_dir(run_dir)
    if not resume:
        if (has_run or os.path.isdir(ckpt_dir) and os.listdir(ckpt_dir)) and not force:
            raise ValueError(f"{run_dir} already contains a run (use --force or --resume)")
        return None
    if not has_run:
        raise ValueError(f"{run_dir} holds no run (no config.txt): nothing to resume")
    steps = checkpoint_steps(ckpt_dir)
    if not steps:
        raise ValueError(f"{run_dir} has no checkpoint to resume from")
    changed = [key for key in cfgmod.differing_keys(read_config(run_dir), cfg)
               if key != "corpus.prepared"]
    if changed:
        raise ValueError(f"config does not match the run's config.txt: {', '.join(changed)} "
                         f"differ (to change them, start a new run)")
    return steps[-1]


@contextlib.contextmanager
def lock(run_dir):
    """Hold an exclusive flock on the run's lock file, making the run
    directory if missing; the file is removed on exit.

    The kernel drops the flock when its process ends, however it ends, so a
    lock file left by a killed run blocks nothing and its content is never
    read. A holder that unlinked the file between our open and our flock
    leaves us locking a dead inode, which counts as held too."""
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, LOCK)
    fd = os.open(path, os.O_CREAT | os.O_WRONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        held = os.path.samestat(os.fstat(fd), os.stat(path))
    except (BlockingIOError, FileNotFoundError):
        held = False
    if not held:
        os.close(fd)
        raise ValueError(f"run directory {run_dir} is locked by another process "
                         f"(lock file {path})")
    try:
        yield
    finally:
        os.unlink(path)
        os.close(fd)


class JsonlSink:
    """Starts a train of cfg in run_dir, under lock(), then writes its
    metrics and snapshot rows there as JSONL.

    A fresh start (resume_step None) empties the replaced run's checkpoints/
    in place (it may be a link to another disk), removes its default eval
    report, and starts both row files empty. A resume keeps the rows the
    run wrote before its checkpoint at resume_step and appends after them:
    metrics of steps 0 to resume_step - 1, and one snapshot row per category
    at each step below resume_step that trainer.saves_at gives for
    ptw.snapshot_every. If either file's kept rows are not exactly those, it
    refuses and changes no file. Then it writes cfg to config.txt."""

    def __init__(self, run_dir, cfg: cfgmod.RunConfig, resume_step=None):
        mode = "w"
        if resume_step is None:  # nothing of a replaced run may survive into this one
            ckpt_dir = checkpoint_dir(run_dir)
            for entry in os.scandir(ckpt_dir) if os.path.isdir(ckpt_dir) else ():
                remove = shutil.rmtree if entry.is_dir(follow_symlinks=False) else os.remove
                remove(entry.path)
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(run_dir, EVAL_REPORT))
        else:
            every, T = cfg.ptw_snapshot_every, cfg.train_T
            expected = {METRICS: list(range(resume_step)), SNAPSHOTS: [
                t for t in range(resume_step) if saves_at(t, every, T) for _ in UPOS_TAGS]}
            kept = {}
            for name, steps in expected.items():
                path = os.path.join(run_dir, name)
                rows = read_rows(run_dir, name) if os.path.exists(path) else []
                kept[path] = [row for row in rows if row["step"] < resume_step]
                if [row["step"] for row in kept[path]] != steps:
                    raise ValueError(f"{path} does not hold exactly the rows of the steps before "
                                     f"the checkpoint at step {resume_step}: cannot resume "
                                     f"without a gap")
            for path, rows in kept.items():
                with open(path, "w", encoding="utf-8") as f:
                    f.writelines(json.dumps(row) + "\n" for row in rows)
            mode = "a"
        self._metrics = open(os.path.join(run_dir, METRICS), mode, encoding="utf-8")
        self._snapshots = open(os.path.join(run_dir, SNAPSHOTS), mode, encoding="utf-8")
        cfgmod.save(cfg, os.path.join(run_dir, CONFIG))

    def on_metrics(self, row):
        self._metrics.write(json.dumps(row) + "\n")

    def on_snapshots(self, rows):
        for row in rows:
            self._snapshots.write(json.dumps(row) + "\n")

    def flush(self):
        self._metrics.flush()
        self._snapshots.flush()

    def close(self):
        self.flush()
        self._metrics.close()
        self._snapshots.close()


def read_rows(run_dir, name, columns=()) -> list[dict]:
    """Rows of the run's row file ``name`` (METRICS or SNAPSHOTS), each a
    JSON object with an integer "step" and every key in ``columns``.

    An unterminated last line that does not parse is a write torn by a kill
    and is dropped; any other malformed line or row raises a ValueError
    naming the file and the line."""
    path = os.path.join(run_dir, name)
    if not os.path.exists(path):
        raise ValueError(f"run has no {name}: {run_dir}")
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    rows = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as err:
            if number == len(lines) and not line.endswith("\n"):
                break
            raise ValueError(f"{path} line {number}: {err}") from None
        if not (isinstance(row, dict) and type(row.get("step")) is int
                and all(key in row for key in columns)):
            raise ValueError(f"{path} line {number} is not a JSON object with an integer step"
                             + "".join(f", {key}" for key in columns))
        rows.append(row)
    return rows
