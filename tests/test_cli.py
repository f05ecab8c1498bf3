import errno
import fcntl
import json
import math
import os
import pickle
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import tvmask
from tvmask import trainer
from tvmask.cli import main
from tvmask.corpus.synth import write_corpus
from tvmask.corpus.vocab import Vocabulary
from tvmask.postags import UPOS_TAGS
from tvmask.trainer import load_checkpoint

HAND_CORPUS = """\
the\tDET
cat\tNOUN
sat\tVERB
.\tPUNCT

a\tDET
dog\tNOUN
ran\tVERB
!\tPUNCT

birds\tNOUN
fly\tVERB
.\tPUNCT
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic corpus prepared once for the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.txt"
    write_corpus(corpus, 9000, 17)
    heldout = root / "heldout.txt"
    write_corpus(heldout, 1500, 18)
    prep = root / "prep"
    assert main(["prepare", "--corpus", str(corpus), "--out", str(prep),
                 "--vocab-size", "512", "--L-seq", "32"]) == 0
    return root


def micro_config(workdir, **kv):
    lines = {
        "corpus.prepared": str(workdir / "prep"),
        "schedule.kind": "linear",
        "schedule.p": "0.15",
        "mask.strategy": "random",
        "model.layers": "1",
        "model.hidden_dim": "16",
        "model.heads": "2",
        "model.ff_dim": "32",
        "lr.base": "0.002",
        "lr.warmup": "5",
        "train.T": "24",
        "train.batch_size": "4",
        "train.checkpoint_every": "12",
        "ptw.snapshot_every": "6",
        "run.seed": "3",
    }
    lines.update({k: str(v) for k, v in kv.items()})
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


def write_cfg(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ------------------------------------------------------------ prepare

def test_prepare_stats_match_hand_counts(tmp_path):
    corpus = tmp_path / "hand.txt"
    corpus.write_text(HAND_CORPUS, encoding="utf-8")
    out = tmp_path / "prep"
    assert main(["prepare", "--corpus", str(corpus), "--out", str(out),
                 "--vocab-size", "64", "--L-seq", "16"]) == 0
    stats = json.loads((out / "stats.json").read_text())
    counts = stats["tokens_per_category"]
    assert counts["DET"] == 2
    assert counts["NOUN"] == 3
    assert counts["VERB"] == 3
    assert counts["PUNCT"] == 3
    assert sum(counts.values()) == 11
    assert stats["n_sentences"] == 3


def test_prepare_rerun_byte_identical(tmp_path):
    corpus = tmp_path / "c.txt"
    write_corpus(corpus, 3000, 4)
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    for out in (out1, out2):
        assert main(["prepare", "--corpus", str(corpus), "--out", str(out),
                     "--vocab-size", "256", "--L-seq", "16"]) == 0
    for name in ("vocab.txt", "tokens.npy", "pos_ids.npy", "special.npy", "stats.json",
                 "meta.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_prepare_missing_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert main(["prepare", "--corpus", str(missing), "--out", str(tmp_path / "o")]) == 1
    assert str(missing) in capsys.readouterr().err


def test_prepare_reserved_token_words(tmp_path):
    # corpus words spelled like reserved tokens are plain words: a frequent
    # [PAD] would enter the vocabulary a second time, and rare [MASK], [CLS],
    # [SEP] and [UNK] words would become those tokens in the packed rows
    corpus = tmp_path / "reserved.txt"
    corpus.write_text("\n".join(["[PAD]\tX\nthe\tDET\ncat\tNOUN\n"] * 30 +
                                ["[MASK]\tNOUN\n[CLS]\tX\n[SEP]\tX\n[UNK]\tX\nsat\tVERB\n"]),
                      encoding="utf-8")
    out = tmp_path / "prep"
    assert main(["prepare", "--corpus", str(corpus), "--out", str(out),
                 "--vocab-size", "48", "--L-seq", "16"]) == 0
    body = np.load(out / "tokens.npy")[~np.load(out / "special.npy")]
    v = Vocabulary.load(out / "vocab.txt")
    assert not np.isin(body, [v.pad_id, v.cls_id, v.sep_id, v.mask_id]).any()


def test_prepare_refuses_overwrite(tmp_path):
    corpus = tmp_path / "c.txt"
    write_corpus(corpus, 2000, 4)
    out = tmp_path / "prep"
    args = ["prepare", "--corpus", str(corpus), "--out", str(out),
            "--vocab-size", "256", "--L-seq", "16"]
    assert main(args) == 0
    assert main(args) == 1
    assert main(args + ["--force"]) == 0


def test_prepare_out_naming_a_file_refused_before_reading(tmp_path, capsys):
    out = tmp_path / "afile"
    out.write_text("keep me", encoding="utf-8")
    missing = tmp_path / "nope.txt"  # named instead, were the corpus read first
    assert main(["prepare", "--corpus", str(missing), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(out) in err and str(missing) not in err and "Traceback" not in err, err
    assert out.read_text(encoding="utf-8") == "keep me"


def test_prepare_cut_short_leaves_no_prepared_corpus(workdir, tmp_path, capsys):
    prep = tmp_path / "prep"
    shutil.copytree(workdir / "prep", prep)
    (prep / "special.npy").unlink()
    (prep / "special.npy").mkdir()  # the forced rewrite below fails at its last array
    capsys.readouterr()
    assert main(["prepare", "--corpus", str(workdir / "corpus.txt"), "--out", str(prep),
                 "--vocab-size", "512", "--L-seq", "16", "--force"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("aborted: ") and "Traceback" not in err, err
    assert not (prep / "meta.json").exists()
    assert main(["mask-debug", "--prepared", str(prep)]) == 1
    err = capsys.readouterr().err
    assert "meta.json" in err and "Traceback" not in err, err


@pytest.mark.parametrize("damage", [
    lambda meta: "[]",
    lambda meta: json.dumps({k: v for k, v in meta.items() if k != "L_seq"}),
    lambda meta: json.dumps({**meta, "n_sequences": str(meta["n_sequences"])}),
    lambda meta: "{",
], ids=["not-an-object", "no-L_seq", "string-n_sequences", "torn"])
def test_damaged_meta_refused(workdir, tmp_path, capsys, damage):
    prep = tmp_path / "prep"
    shutil.copytree(workdir / "prep", prep)
    meta = prep / "meta.json"
    meta.write_text(damage(json.loads(meta.read_text(encoding="utf-8"))), encoding="utf-8")
    cfg = write_cfg(tmp_path / "a.cfg", micro_config(workdir, **{"corpus.prepared": prep}))
    for argv in (["mask-debug", "--prepared", str(prep)],
                 ["train", cfg, "--out", str(tmp_path / "run")]):
        capsys.readouterr()
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert str(meta) in err and "Traceback" not in err, (argv[0], err)


@pytest.mark.parametrize("swapped", [("tokens.npy", "pos_ids.npy", "special.npy"),
                                     ("tokens.npy", "pos_ids.npy")])
def test_arrays_not_matching_meta_refused(workdir, tmp_path, capsys, swapped):
    # L_seq 16 arrays under the L_seq 32 meta.json: vocab.txt is the same at
    # both lengths, so only the shapes show the mix
    short = tmp_path / "short"
    assert main(["prepare", "--corpus", str(workdir / "corpus.txt"), "--out", str(short),
                 "--vocab-size", "512", "--L-seq", "16"]) == 0
    prep = tmp_path / "prep"
    shutil.copytree(workdir / "prep", prep)
    for name in swapped:
        shutil.copy(short / name, prep / name)
    cfg = write_cfg(tmp_path / "a.cfg", micro_config(workdir, **{"corpus.prepared": prep}))
    capsys.readouterr()
    assert main(["train", cfg, "--out", str(tmp_path / "run")]) == 1
    assert main(["mask-debug", "--prepared", str(prep)]) == 1
    captured = capsys.readouterr()
    assert captured.err.count(f"arrays in {prep} do not match") == 2, captured.err
    assert "Traceback" not in captured.err and not captured.out
    assert not (tmp_path / "run").exists()


# ------------------------------------------------------------ train

def test_train_matrix_smoke(workdir, tmp_path):
    for i, (kind, strategy) in enumerate(
        [("fixed", "random"), ("linear", "random"), ("fixed", "ptw"), ("linear", "ptw")]
    ):
        cfg = write_cfg(tmp_path / f"m{i}.cfg", micro_config(
            workdir, **{"schedule.kind": kind, "mask.strategy": strategy, "train.T": 20}))
        assert main(["train", cfg, "--out", str(tmp_path / f"run{i}")]) == 0, (kind, strategy)


def test_train_refuses_existing_run(workdir, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "a.cfg", micro_config(workdir))
    out = str(tmp_path / "run")
    assert main(["train", cfg, "--out", out]) == 0
    assert main(["train", cfg, "--out", out]) == 1
    assert "--force" in capsys.readouterr().err
    assert main(["train", cfg, "--out", out, "--force"]) == 0


def test_train_force_starts_fresh_run(workdir, tmp_path, capsys):
    old = write_cfg(tmp_path / "old.cfg", micro_config(workdir))
    new = write_cfg(tmp_path / "new.cfg", micro_config(
        workdir, **{"train.T": 10, "train.checkpoint_every": 5}))
    out, ref, stray = tmp_path / "run", tmp_path / "ref", tmp_path / "stray"
    assert main(["train", old, "--out", str(out)]) == 0
    assert main(["eval", "--run", str(out), "--heldout", str(workdir / "heldout.txt"),
                 "--checkpoint", "latest"]) == 0
    # a directory holding another run's checkpoints but no config.txt holds a run too
    shutil.copytree(out / "checkpoints", stray / "checkpoints")
    capsys.readouterr()
    assert main(["train", new, "--out", str(stray)]) == 1
    assert "--force" in capsys.readouterr().err
    for run in (out, stray):  # a kill during a checkpoint save leaves a partial file
        (run / "checkpoints" / "step_00000007.ckpt.tmp").write_bytes(b"partial")
        assert main(["train", new, "--out", str(run), "--force"]) == 0, run.name
    assert main(["train", new, "--out", str(ref)]) == 0

    # only this run's rows and checkpoints remain, and no report on the replaced run's
    for run in (out, stray):
        for name in ("metrics.jsonl", "snapshots.jsonl"):
            assert (run / name).read_bytes() == (ref / name).read_bytes(), (run.name, name)
        steps = [json.loads(l)["step"] for l in (run / "metrics.jsonl").read_text().splitlines()]
        assert steps == list(range(10)), run.name
        assert sorted(os.listdir(run / "checkpoints")) == sorted(os.listdir(ref / "checkpoints")) \
            == ["step_00000000.ckpt", "step_00000005.ckpt", "step_00000010.ckpt"], run.name
        assert not (run / "eval_report.json").exists(), run.name

    # a resume picks up this run's checkpoint, not an older run's
    os.remove(out / "checkpoints" / "step_00000010.ckpt")
    assert main(["train", new, "--out", str(out), "--resume"]) == 0
    for name in ("metrics.jsonl", "snapshots.jsonl"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    state, _, _ = load_checkpoint(str(out / "checkpoints" / "step_00000010.ckpt"))
    assert state.step == 10


def test_train_refused_resume_keeps_config(workdir, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "a.cfg", micro_config(workdir))
    wider = write_cfg(tmp_path / "b.cfg", micro_config(workdir, **{"model.hidden_dim": 32}))
    out = tmp_path / "run"
    assert main(["train", cfg, "--out", str(out)]) == 0
    saved = (out / "config.txt").read_bytes()
    assert main(["train", wider, "--out", str(out), "--resume"]) == 1
    assert "does not match" in capsys.readouterr().err
    assert (out / "config.txt").read_bytes() == saved


def test_train_resume_refuses_changed_config(workdir, tmp_path, capsys):
    # a fixed/ptw run resumed as cosine/random, and a T=60 run resumed with T=40
    cases = [
        ({"schedule.kind": "fixed", "mask.strategy": "ptw"},
         {"schedule.kind": "cosine", "mask.strategy": "random"},
         ["schedule.kind", "schedule.floor", "mask.strategy", "lr.shape"]),
        ({"train.T": 60, "train.checkpoint_every": 25}, {"train.T": 40},
         ["schedule.T", "train.T", "train.checkpoint_every"]),
    ]
    for i, (first, second, keys) in enumerate(cases):
        cfg = write_cfg(tmp_path / f"a{i}.cfg", micro_config(workdir, **first))
        changed = write_cfg(tmp_path / f"b{i}.cfg", micro_config(workdir, **second))
        out = tmp_path / f"run{i}"
        assert main(["train", cfg, "--out", str(out)]) == 0
        os.remove(sorted((out / "checkpoints").iterdir())[-1])  # interrupted before the end
        before = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(["train", changed, "--out", str(out), "--resume"]) == 1, i
        err = capsys.readouterr().err
        assert "config does not match the run's config.txt" in err, i
        assert all(key in err for key in keys), (i, err)
        assert {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before, i
        # the run's own config still resumes, from another corpus path to the same corpus
        assert main(["train", cfg, "--out", str(out), "--resume",
                     "--corpus", str(workdir / "prep") + os.sep]) == 0, i


def _hold_lock(path):
    """An fd holding the flock a live run holds on its lock file. A second
    open file description conflicts with it even within this process."""
    fd = os.open(path, os.O_CREAT | os.O_WRONLY)
    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    return fd


def test_train_lock_refuses_concurrent(workdir, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "a.cfg", micro_config(workdir))
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    # a live holder holds the run whatever its lock file says; an exited pid
    # is how a run in another pid namespace or on another host looks from here
    for i, content in enumerate((str(os.getpid()), "", str(child.pid))):
        out = tmp_path / f"run{i}"
        out.mkdir()
        (out / "lock").write_text(content)
        holder = _hold_lock(out / "lock")
        try:
            assert main(["train", cfg, "--out", str(out)]) == 1, content
            assert str(out / "lock") in capsys.readouterr().err, content
        finally:
            os.close(holder)
        assert main(["train", cfg, "--out", str(out)]) == 0, content
        assert not (out / "lock").exists(), content


def test_train_resume_reclaims_stale_lock(workdir, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "a.cfg", micro_config(workdir))
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", cfg, "--out", str(r1)]) == 0
    assert main(["train", cfg, "--out", str(r2)]) == 0
    # a run killed after its step-12 checkpoint leaves its lock file behind
    os.remove(r2 / "checkpoints" / "step_00000024.ckpt")
    holder = _hold_lock(r2 / "lock")
    try:
        assert main(["train", cfg, "--out", str(r2), "--resume"]) == 1  # the holder is alive
        assert "locked by another process" in capsys.readouterr().err
    finally:
        os.close(holder)  # the holder has exited: its flock is gone, its file stays
    assert (r2 / "lock").exists()
    assert main(["train", cfg, "--out", str(r2), "--resume"]) == 0
    assert not (r2 / "lock").exists()
    for name in ("metrics.jsonl", "snapshots.jsonl"):
        assert (r1 / name).read_bytes() == (r2 / name).read_bytes()


def test_train_determinism_and_resume(workdir, tmp_path):
    cfg = write_cfg(tmp_path / "a.cfg", micro_config(workdir))
    r1, r2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["train", cfg, "--out", r1]) == 0
    assert main(["train", cfg, "--out", r2]) == 0
    assert (tmp_path / "r1" / "metrics.jsonl").read_bytes() == \
           (tmp_path / "r2" / "metrics.jsonl").read_bytes()

    # interrupt simulation: drop the final checkpoint and the metrics tail
    os.remove(tmp_path / "r2" / "checkpoints" / "step_00000024.ckpt")
    for name in ("metrics.jsonl", "snapshots.jsonl"):
        rows = [l for l in (tmp_path / "r2" / name).read_text().splitlines(keepends=True)
                if json.loads(l)["step"] < 15]
        (tmp_path / "r2" / name).write_text("".join(rows))
    assert main(["train", cfg, "--out", r2, "--resume"]) == 0
    for name in ("metrics.jsonl", "snapshots.jsonl"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
    steps = [json.loads(l)["step"] for l in (tmp_path / "r2" / "metrics.jsonl").read_text().splitlines()]
    assert steps == list(range(24))  # no gap, no duplicates


def test_train_resume_after_torn_metrics_line(workdir, tmp_path):
    cfg = write_cfg(tmp_path / "a.cfg", micro_config(workdir))
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", cfg, "--out", str(r1)]) == 0
    assert main(["train", cfg, "--out", str(r2)]) == 0

    # a kill mid-write: the final checkpoint is missing and the metrics
    # file ends in half a row with no newline
    os.remove(r2 / "checkpoints" / "step_00000024.ckpt")
    lines = (r2 / "metrics.jsonl").read_text().splitlines(keepends=True)
    torn = lines[20].rstrip("\n")
    (r2 / "metrics.jsonl").write_text("".join(lines[:20]) + torn[: len(torn) // 2])
    assert main(["train", cfg, "--out", str(r2), "--resume"]) == 0
    for name in ("metrics.jsonl", "snapshots.jsonl"):
        assert (r1 / name).read_bytes() == (r2 / name).read_bytes()


def test_train_resume_refuses_metrics_gap(workdir, tmp_path, capsys):
    # rows of steps the resumed checkpoint already holds are missing: resuming
    # would leave a hole in metrics.jsonl, so nothing is touched
    cfg = write_cfg(tmp_path / "a.cfg", micro_config(workdir))
    out = tmp_path / "run"
    assert main(["train", cfg, "--out", str(out)]) == 0
    os.remove(out / "checkpoints" / "step_00000024.ckpt")
    lines = (out / "metrics.jsonl").read_text().splitlines(keepends=True)
    # the resume starts at the step-12 checkpoint; a row that is not an object
    # with an integer step is refused by its line number
    cases = {8: (lines[:8], "step 12"), 11: (lines[:11], "step 12"),
             "{}": (lines[:5] + ["{}\n"] + lines[5:], "line 6"),
             "[1]": (lines[:5] + ["[1]\n"] + lines[5:], "line 6")}
    for cut, (kept, named) in cases.items():
        (out / "metrics.jsonl").write_text("".join(kept))
        before = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(["train", cfg, "--out", str(out), "--resume"]) == 1, cut
        err = capsys.readouterr().err
        assert str(out / "metrics.jsonl") in err and named in err, (cut, err)
        assert "Traceback" not in err, (cut, err)
        assert {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before, cut


def test_train_resume_refuses_snapshots_gap(workdir, tmp_path, capsys):
    # snapshots.jsonl cut to its step-0 rows lacks the step-6 snapshot that the
    # step-12 checkpoint follows: resuming would lose it, so nothing is touched
    cfg = write_cfg(tmp_path / "a.cfg", micro_config(workdir))
    out = tmp_path / "run"
    assert main(["train", cfg, "--out", str(out)]) == 0
    os.remove(out / "checkpoints" / "step_00000024.ckpt")
    lines = (out / "snapshots.jsonl").read_text().splitlines(keepends=True)
    (out / "snapshots.jsonl").write_text("".join(lines[:len(UPOS_TAGS)]))
    before = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(["train", cfg, "--out", str(out), "--resume"]) == 1
    err = capsys.readouterr().err
    assert str(out / "snapshots.jsonl") in err and "step 12" in err, err
    assert {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def _spawn_train(cfg, out, *extra):
    """`tvmask train` in a child process pinned to one BLAS thread."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.path.dirname(os.path.dirname(tvmask.__file__))}
    return subprocess.Popen([sys.executable, "-m", "tvmask.cli", "train", cfg, "--out", str(out),
                             *extra], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def test_train_resume_after_kill_is_bit_identical(workdir, tmp_path):
    # a real SIGKILL the moment a checkpoint lands: the rows of every step it
    # holds must be on disk, whatever the sink still buffered. The cadence of
    # 130 steps falls between the sink's buffer flushes.
    cfg = write_cfg(tmp_path / "a.cfg", micro_config(workdir, **{
        "mask.strategy": "ptw", "train.T": 600, "train.checkpoint_every": 130,
        "ptw.snapshot_every": 10}))
    ref = tmp_path / "ref"
    proc = _spawn_train(cfg, ref)
    err = proc.communicate(timeout=300)[1]
    assert proc.returncode == 0, err
    for kill_step in (130, 390):
        run = tmp_path / f"run{kill_step}"
        proc = _spawn_train(cfg, run)
        landed = run / "checkpoints" / f"step_{kill_step:08d}.ckpt"
        deadline = time.monotonic() + 300
        while not landed.exists():
            assert proc.poll() is None and time.monotonic() < deadline, kill_step
            time.sleep(0.001)
        proc.kill()
        assert proc.wait(timeout=60) == -signal.SIGKILL, kill_step  # killed mid-run
        assert (run / "lock").exists()  # left by the killed run; its flock died with it

        resumed = _spawn_train(cfg, run, "--resume")
        err = resumed.communicate(timeout=300)[1]
        assert resumed.returncode == 0, err
        assert not (run / "lock").exists()
        for name in ("metrics.jsonl", "snapshots.jsonl"):
            assert (run / name).read_bytes() == (ref / name).read_bytes(), (kill_step, name)
        ckpts = sorted(os.listdir(ref / "checkpoints"))
        assert sorted(os.listdir(run / "checkpoints")) == ckpts, kill_step
        for name in ckpts:  # equal bytes: equal arrays, scalars and header
            assert (run / "checkpoints" / name).read_bytes() == \
                (ref / "checkpoints" / name).read_bytes(), (kill_step, name)
        assert load_checkpoint(str(run / "checkpoints" / ckpts[-1]))[0].step == 600


def test_train_bad_ptw_values_rejected_before_run_dir(workdir, tmp_path):
    for i, kv in enumerate([{"ptw.beta": 1.5}, {"ptw.beta": 0.0}, {"ptw.mu": 0.0},
                            {"ptw.mu": -1.0}, {"ptw.mu": 0.001}]):
        cfg = write_cfg(tmp_path / f"bad{i}.cfg",
                        micro_config(workdir, **{"mask.strategy": "ptw", **kv}))
        out = tmp_path / f"run{i}"
        assert main(["train", cfg, "--out", str(out)]) == 1, kv
        assert not out.exists(), kv


def test_train_bad_config_rejected_before_run_dir(workdir, tmp_path, capsys):
    for i, kv in enumerate([{"schedule.T": 20, "train.T": 40},
                            {"mask.corrupt_split": "0.5,0.1,0.1"},
                            {"corpus.prepared": str(tmp_path / "missing")}]):
        cfg = write_cfg(tmp_path / f"bad{i}.cfg", micro_config(workdir, **kv))
        out = tmp_path / f"run{i}"
        assert main(["train", cfg, "--out", str(out)]) == 1, kv
        assert next(iter(kv)) in capsys.readouterr().err, kv
        assert not out.exists(), kv
    # a schedule longer than the run is fine
    cfg = write_cfg(tmp_path / "long.cfg", micro_config(workdir, **{"schedule.T": 40}))
    assert main(["train", cfg, "--out", str(tmp_path / "long"), "--steps", "20"]) == 0


def test_train_resume_without_checkpoint_errors(workdir, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "a.cfg", micro_config(workdir, **{"train.checkpoint_every": 0}))
    out = tmp_path / "run"
    out.mkdir()
    (out / "config.txt").write_text("placeholder")
    assert main(["train", cfg, "--out", str(out), "--resume"]) == 1


def test_train_resume_without_run_errors(workdir, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "a.cfg", micro_config(workdir))
    out = tmp_path / "run"
    out.mkdir()
    assert main(["train", cfg, "--out", str(out), "--resume"]) == 1
    assert "nothing to resume" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_train_schedule_masking_nothing_at_step_0_rejected(workdir, tmp_path, capsys):
    for kind in ("ascending", "ascend_then_decay"):
        cfg = write_cfg(tmp_path / f"{kind}.cfg", micro_config(workdir, **{"schedule.kind": kind}))
        out = tmp_path / f"run_{kind}"
        assert main(["train", cfg, "--out", str(out)]) == 1, kind
        assert "schedule.floor" in capsys.readouterr().err, kind
        assert not out.exists(), kind
        floored = write_cfg(tmp_path / f"{kind}_floor.cfg", micro_config(
            workdir, **{"schedule.kind": kind, "schedule.floor": 0.01, "lr.shape": "linear"}))
        assert main(["train", floored, "--out", str(out)]) == 0, kind


def test_train_cli_overrides(workdir, tmp_path):
    cfg = write_cfg(tmp_path / "a.cfg", micro_config(workdir))
    out = str(tmp_path / "r")
    assert main(["train", cfg, "--out", out, "--steps", "10", "--seed", "77"]) == 0
    saved = (tmp_path / "r" / "config.txt").read_text()
    assert "train.T = 10" in saved
    assert "run.seed = 77" in saved
    rows = (tmp_path / "r" / "metrics.jsonl").read_text().splitlines()
    assert len(rows) == 10
    # the file is checked with the overrides applied, so --steps can set a T
    # that the file's own train.T would not fit
    for i, kv in enumerate([{"train.T": 0}, {"train.T": 40, "schedule.T": 20}]):
        cfg = write_cfg(tmp_path / f"o{i}.cfg", micro_config(workdir, **kv))
        assert main(["train", cfg, "--out", str(tmp_path / f"o{i}"), "--steps", "12"]) == 0, kv


def test_train_bad_config_exit_code(workdir, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", micro_config(workdir, **{"mask.strategy": "bogus"}))
    assert main(["train", cfg, "--out", str(tmp_path / "r")]) == 1


def test_library_reads_run_without_cli(workdir, tmp_path):
    # a run written by `tvmask train`, read through tvmask.rundir alone, and
    # its prepared corpus through tvmask.corpus alone, in a fresh interpreter
    cfg = write_cfg(tmp_path / "a.cfg", micro_config(workdir))
    run = str(tmp_path / "run")
    assert main(["train", cfg, "--out", run]) == 0
    reader = (
        "import json, os, sys\n"
        "from tvmask import config, corpus, rundir\n"
        f"cfg = config.read({cfg!r})\n"
        f"cfg.run_out = {run!r}\n"
        f"assert rundir.read_config({run!r}) == cfg.resolved()\n"
        f"steps = [row['step'] for row in rundir.read_rows({run!r}, rundir.METRICS)]\n"
        "assert steps == list(range(cfg.train_T)), steps\n"
        "*_, vocab = corpus.load_packed(cfg.corpus_prepared)\n"
        "assert isinstance(vocab, corpus.Vocabulary)\n"
        "with open(os.path.join(cfg.corpus_prepared, 'meta.json'), encoding='utf-8') as f:\n"
        "    assert vocab.content_hash() == json.load(f)['vocab_hash']\n"
        "assert 'tvmask.cli' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tvmask.__file__))}
    done = subprocess.run([sys.executable, "-c", reader], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_benchmark_clock_targets_resolve(monkeypatch):
    # perfbench times train steps at the return of tvmask.cli.JsonlSink.on_metrics
    # and eval checkpoints at tvmask.cli.eval_mlm, and traces the dotted names in
    # its TARGETS table; a name moved out of the module it points at reads 0
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(__file__)),
                                             "perfbench"))
    import tracer

    from tvmask import cli, rundir
    assert tracer.resolve("tvmask.cli.JsonlSink.on_metrics") is not None
    assert tracer.resolve("tvmask.cli.eval_mlm") is not None
    assert cli.JsonlSink is rundir.JsonlSink  # the class train's sink is made from
    absent = {dotted for _, dotted, _ in tracer.TARGETS if tracer.resolve(dotted) is None}
    assert absent <= {"tvmask.cli.tokenize_aligned", "tvmask.trainer.build_plan",
                      "tvmask.masking.kernels.sample_proportional",
                      "tvmask.masking.plan.corrupt", "tvmask.trainer.dloss_dlogits"}, absent


# ------------------------------------------------------------ export

def test_export_schedule_endpoints(tmp_path):
    out = tmp_path / "sched.csv"
    assert main(["export-schedule", "--kind", "cosine", "--p", "0.15",
                 "--steps", "100", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "step,ratio"
    assert len(rows) == 102
    assert float(rows[1].split(",")[1]) == pytest.approx(0.32, abs=1e-12)
    assert float(rows[-1].split(",")[1]) == pytest.approx(0.02, abs=1e-12)


def test_export_run_artifacts(workdir, tmp_path):
    cfg = write_cfg(tmp_path / "a.cfg", micro_config(workdir))
    run = str(tmp_path / "run")
    assert main(["train", cfg, "--out", run]) == 0

    wcsv = tmp_path / "weights.csv"
    assert main(["export", "--run", run, "--what", "weights", "--out", str(wcsv)]) == 0
    rows = [r.split(",") for r in wcsv.read_text().splitlines()[1:]]
    step0 = [r for r in rows if r[0] == "0"]
    assert len(step0) == len(UPOS_TAGS)
    assert all(float(r[2]) == 0.5 for r in step0)

    lcsv = tmp_path / "losses.csv"
    assert main(["export", "--run", run, "--what", "losses", "--out", str(lcsv)]) == 0
    lrows = lcsv.read_text().splitlines()[1:]
    snapshots = {json.loads(l)["step"] for l in
                 (tmp_path / "run" / "snapshots.jsonl").read_text().splitlines()}
    assert len(lrows) == len(snapshots) * len(UPOS_TAGS)

    scsv = tmp_path / "sched.csv"
    assert main(["export", "--run", run, "--what", "schedule", "--out", str(scsv)]) == 0
    srows = scsv.read_text().splitlines()
    assert len(srows) == 24 + 2  # header + T+1 rows


def test_export_survives_torn_last_line(workdir, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "a.cfg", micro_config(workdir))
    run = tmp_path / "run"
    assert main(["train", cfg, "--out", str(run)]) == 0
    snapshots = run / "snapshots.jsonl"
    data = snapshots.read_bytes()
    snapshots.write_bytes(data[:-30])  # a kill mid-write: half a row, no newline
    out = tmp_path / "w.csv"
    assert main(["export", "--run", str(run), "--what", "weights", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + data.count(b"\n") - 1

    # a malformed line that is not the torn tail still fails, and so does a
    # row without an integer step or without the exported column
    lines = data.decode().splitlines(keepends=True)
    for bad in ("{bad\n", "[1]\n", '{"step": "0", "category_name": "NOUN", "weight": 0.5}\n',
                '{"step": 0, "category_name": "NOUN"}\n'):
        snapshots.write_text("".join(lines[:3]) + bad + "".join(lines[3:]))
        capsys.readouterr()
        assert main(["export", "--run", str(run), "--what", "weights", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{snapshots} line 4" in err and "Traceback" not in err, (bad, err)


def test_export_unknown_run(tmp_path, capsys):
    assert main(["export", "--run", str(tmp_path / "ghost"), "--what", "losses"]) == 1


# ------------------------------------------------------------ eval

@pytest.fixture(scope="module")
def trained_run(workdir, tmp_path_factory):
    root = tmp_path_factory.mktemp("evalrun")
    cfg_path = root / "cfg.txt"
    cfg_path.write_text(micro_config(workdir), encoding="utf-8")
    run = root / "run"
    assert main(["train", str(cfg_path), "--out", str(run)]) == 0
    return run


def repointed_run(workdir, trained_run, tmp_path, prepared):
    """A copy of trained_run's config and checkpoints whose corpus.prepared is ``prepared``."""
    run = tmp_path / "run2"
    run.mkdir()
    cfg_text = (trained_run / "config.txt").read_text()
    (run / "config.txt").write_text(cfg_text.replace(str(workdir / "prep"), str(prepared)))
    shutil.copytree(trained_run / "checkpoints", run / "checkpoints")
    return run


def test_eval_checkpoint_zero_near_lnV(workdir, trained_run, capsys):
    heldout = workdir / "heldout.txt"
    assert main(["eval", "--run", str(trained_run), "--heldout", str(heldout),
                 "--checkpoint", "0"]) == 0
    report = json.loads((trained_run / "eval_report.json").read_text())
    meta_vocab = 512
    entry = report["checkpoints"][0]
    assert entry["step"] == 0
    assert entry["overall"] == pytest.approx(math.log(meta_vocab), rel=0.03)
    for name, val in entry["per_category"].items():
        if val is not None:
            assert val == pytest.approx(math.log(meta_vocab), rel=0.06), name


def test_eval_deterministic(workdir, trained_run, tmp_path):
    heldout = workdir / "heldout.txt"
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for o in (o1, o2):
        assert main(["eval", "--run", str(trained_run), "--heldout", str(heldout),
                     "--checkpoint", "latest", "--out", str(o)]) == 0
    assert json.loads(o1.read_text())["checkpoints"] == json.loads(o2.read_text())["checkpoints"]


def test_eval_all_checkpoints(workdir, trained_run, tmp_path):
    heldout = workdir / "heldout.txt"
    out = tmp_path / "all.json"
    assert main(["eval", "--run", str(trained_run), "--heldout", str(heldout),
                 "--checkpoint", "all", "--out", str(out)]) == 0
    steps = [c["step"] for c in json.loads(out.read_text())["checkpoints"]]
    assert steps == [0, 12, 24]


def test_eval_hashes_the_vocabulary_once(workdir, trained_run, tmp_path, monkeypatch):
    # load_meta checks the vocabulary against meta.json; checkpoints compare to that hash
    calls = []
    content_hash = Vocabulary.content_hash
    monkeypatch.setattr(Vocabulary, "content_hash", lambda v: calls.append(1) or content_hash(v))
    assert main(["eval", "--run", str(trained_run), "--heldout", str(workdir / "heldout.txt"),
                 "--checkpoint", "all", "--out", str(tmp_path / "all.json")]) == 0
    assert len(calls) == 1


def test_eval_vocab_mismatch_rejected(workdir, trained_run, tmp_path, capsys):
    # re-point the run at a differently-built corpus: hash check must fire
    other_corpus = tmp_path / "other.txt"
    write_corpus(other_corpus, 3000, 55)
    other_prep = tmp_path / "otherprep"
    assert main(["prepare", "--corpus", str(other_corpus), "--out", str(other_prep),
                 "--vocab-size", "256", "--L-seq", "32"]) == 0
    run2 = repointed_run(workdir, trained_run, tmp_path, other_prep)
    assert main(["eval", "--run", str(run2), "--heldout", str(workdir / "heldout.txt"),
                 "--checkpoint", "0"]) == 1
    assert "vocabulary" in capsys.readouterr().err


def test_eval_moved_corpus_names_the_key(workdir, trained_run, tmp_path, capsys):
    moved = tmp_path / "moved"
    run2 = repointed_run(workdir, trained_run, tmp_path, moved)
    assert main(["eval", "--run", str(run2), "--heldout", str(workdir / "heldout.txt"),
                 "--checkpoint", "0"]) == 1
    assert "corpus.prepared" in capsys.readouterr().err
    assert not (run2 / "eval_report.json").exists()


def test_eval_reads_no_training_matrices(workdir, trained_run, tmp_path):
    prep = tmp_path / "prep"
    shutil.copytree(workdir / "prep", prep)
    for name in ("tokens.npy", "pos_ids.npy", "special.npy"):
        (prep / name).unlink()
    run2 = repointed_run(workdir, trained_run, tmp_path, prep)
    outs = [tmp_path / "stripped.json", tmp_path / "whole.json"]
    for run, out in zip((run2, trained_run), outs):
        assert main(["eval", "--run", str(run), "--heldout", str(workdir / "heldout.txt"),
                     "--checkpoint", "latest", "--out", str(out)]) == 0
    assert (json.loads(outs[0].read_text())["checkpoints"]
            == json.loads(outs[1].read_text())["checkpoints"])


def test_eval_refuses_checkpoint_of_another_length(workdir, trained_run, tmp_path, capsys):
    # the same corpus packed at L_seq 16 has the same vocabulary, so only the
    # checkpoint's L_seq 32 shows the mix
    short = tmp_path / "short"
    assert main(["prepare", "--corpus", str(workdir / "corpus.txt"), "--out", str(short),
                 "--vocab-size", "512", "--L-seq", "16"]) == 0
    run2 = repointed_run(workdir, trained_run, tmp_path, short)
    capsys.readouterr()
    assert main(["eval", "--run", str(run2), "--heldout", str(workdir / "heldout.txt"),
                 "--checkpoint", "12"]) == 1
    err = capsys.readouterr().err
    assert "checkpoint 12" in err and "L_seq" in err and "Traceback" not in err, err
    assert not (run2 / "eval_report.json").exists()


class _MakesDir:
    """Unpickling this runs os.mkdir: the stand-in for code a pickle can carry."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def test_damaged_checkpoint_refused(workdir, trained_run, tmp_path, capsys):
    marker = tmp_path / "pickle_ran"
    damage = {
        "truncated": lambda data: data[: len(data) // 2],
        "version-1 pickle": lambda data: pickle.dumps(
            {"version": 1, "params": _MakesDir(str(marker))}),
    }
    for i, (kind, damaged) in enumerate(damage.items()):
        run = tmp_path / f"run{i}"
        shutil.copytree(trained_run, run)
        ckpt = run / "checkpoints" / "step_00000024.ckpt"
        ckpt.write_bytes(damaged(ckpt.read_bytes()))
        for argv in (["eval", "--run", str(run), "--heldout", str(workdir / "heldout.txt"),
                      "--checkpoint", "latest", "--out", str(tmp_path / "r.json")],
                     ["train", str(run / "config.txt"), "--out", str(run), "--resume"]):
            capsys.readouterr()
            assert main(argv) == 1, (kind, argv[0])
            err = capsys.readouterr().err
            assert str(ckpt) in err and "Traceback" not in err, (kind, argv[0], err)
        assert not (run / "lock").exists(), kind
    assert not marker.exists()  # nothing in the file was unpickled


def test_eval_group_without_masked_tokens(workdir, trained_run, tmp_path, capsys):
    # one 3-word sentence of content words: the function group masks nothing
    heldout = tmp_path / "tiny.txt"
    heldout.write_text("dogs\tNOUN\nbark\tVERB\nloudly\tADV\n", encoding="utf-8")
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["eval", "--run", str(trained_run), "--heldout", str(heldout),
                 "--checkpoint", "latest", "--out", str(out)]) == 0
    assert "function n/a" in capsys.readouterr().out
    [entry] = json.loads(out.read_text())["checkpoints"]
    assert entry["groups"]["function"] is None and entry["n_masked"] >= 1


def test_eval_ratio_outside_open_unit_interval_rejected(workdir, trained_run, tmp_path, capsys):
    out = tmp_path / "report.json"
    for ratio in ("0", "1", "-0.5"):
        assert main(["eval", "--run", str(trained_run), "--heldout", str(workdir / "heldout.txt"),
                     "--ratio", ratio, "--out", str(out)]) == 1, ratio
        err = capsys.readouterr().err
        assert "ratio" in err and "Traceback" not in err, ratio
        assert not out.exists(), ratio


@pytest.mark.parametrize("command, flag, value, message", [
    ("prepare", "--L-seq", "4", "L_seq must be >= 8, got 4"),
    ("prepare", "--vocab-size", "3", "vocab_size must be >= 5, got 3"),
    ("eval", "--ratio", "1.5", "eval ratio must be in (0, 1), got 1.5"),
    ("eval", "--checkpoint", "abc", "--checkpoint must be a step number, 'all' or 'latest'"),
    ("mask-debug", "--rows", "abc", "--rows must be comma-separated sequence numbers"),
])
def test_bad_argument_rejected_before_any_file_is_read(trained_run, tmp_path, capsys,
                                                       command, flag, value, message):
    # each input file is broken too: only the argument's own error may be reported
    if command == "prepare":
        corpus = tmp_path / "malformed.txt"
        corpus.write_text("the\tDET\nno_tag_here\n", encoding="utf-8")
        argv = ["prepare", "--corpus", str(corpus), "--out", str(tmp_path / "prep")]
    elif command == "mask-debug":
        argv = ["mask-debug", "--prepared", str(tmp_path / "missing_prep")]
    else:
        argv = ["eval", "--run", str(trained_run), "--heldout", str(tmp_path / "missing.txt"),
                "--out", str(tmp_path / "report.json")]
    capsys.readouterr()
    assert main(argv + [flag, value]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err, err
    assert not (tmp_path / "prep").exists() and not (tmp_path / "report.json").exists()


# ------------------------------------------------------------ misc

def test_mask_debug_json(workdir, capsys):
    assert main(["mask-debug", "--prepared", str(workdir / "prep"),
                 "--rows", "0,1", "--ratio", "0.2"]) == 0
    plans = json.loads(capsys.readouterr().out)
    assert len(plans) == 2
    for plan in plans:
        assert plan["masked_indices"]
        assert 0 not in plan["masked_indices"]  # CLS never masked
        assert set(plan["actions"]) <= {"mask", "random", "keep"}


def test_mask_debug_refuses_cut_vocabulary(workdir, tmp_path, capsys):
    prep = tmp_path / "prep"
    shutil.copytree(workdir / "prep", prep)
    lines = (prep / "vocab.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    (prep / "vocab.txt").write_text("".join(lines[:-40]), encoding="utf-8")
    assert main(["mask-debug", "--prepared", str(prep)]) == 1
    captured = capsys.readouterr()
    assert "does not match" in captured.err
    assert not captured.out


def test_mask_debug_missing_prepared_dir(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert main(["mask-debug", "--prepared", str(missing)]) == 1
    err = capsys.readouterr().err
    assert str(missing) in err and "Traceback" not in err


@pytest.mark.parametrize("rows", ["99999", "-1", "0,99999"])
def test_mask_debug_rows_out_of_range(workdir, capsys, rows):
    n_sequences = json.loads((workdir / "prep" / "meta.json").read_text())["n_sequences"]
    assert main(["mask-debug", "--prepared", str(workdir / "prep"), "--rows", rows]) == 1
    captured = capsys.readouterr()
    assert "--rows" in captured.err and f"{n_sequences} sequences" in captured.err
    assert "Traceback" not in captured.err and not captured.out


def test_synth_command(tmp_path):
    out = tmp_path / "c.txt"
    assert main(["synth", "--out", str(out), "--tokens", "500", "--seed", "9"]) == 0
    assert out.exists()


def test_usage_error_exit_code(capsys):
    assert main(["train"]) == 1  # missing required config argument
    # a resume cannot also start afresh: refused before the config file is read
    assert main(["train", "missing.cfg", "--resume", "--force"]) == 1
    assert "not allowed with argument" in capsys.readouterr().err


def test_train_failure_after_start_exits_2(workdir, tmp_path, capsys, monkeypatch):
    # a full disk at the step-12 checkpoint, and any ValueError raised in train()
    cfg = write_cfg(tmp_path / "a.cfg", micro_config(workdir))
    save = trainer.save_checkpoint
    for i, err in enumerate((OSError(errno.ENOSPC, "No space left on device"),
                             ValueError("bad value mid-run"))):
        def failing_save(path, state, *args, err=err):
            if state.step == 12:
                raise err
            save(path, state, *args)

        monkeypatch.setattr(trainer, "save_checkpoint", failing_save)
        out = tmp_path / f"run{i}"
        capsys.readouterr()
        assert main(["train", cfg, "--out", str(out)]) == 2, err
        stderr = capsys.readouterr().err
        assert "aborted" in stderr and "Traceback" not in stderr, stderr
        assert not (out / "lock").exists(), err


def test_runtime_abort_exit_code(workdir, tmp_path, capsys):
    # a blow-up learning rate drives the loss non-finite: exit code 2
    cfg = write_cfg(tmp_path / "boom.cfg", micro_config(
        workdir, **{"lr.base": "1e6", "lr.warmup": "1", "train.T": "60"}))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", cfg, "--out", str(tmp_path / "run")])
    assert code == 2
    assert "aborted" in capsys.readouterr().err
