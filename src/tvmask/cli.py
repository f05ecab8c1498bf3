"""Command-line entry point.

Commands: synth (demo corpus), prepare (vocab + packed sequences),
train, export / export-schedule (CSV dumps), eval (per-checkpoint
held-out losses), mask-debug (inspect mask plans as JSON).

Exit codes: 0 success, 1 usage/config error, 2 runtime abort.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from tvmask import config as cfgmod
from tvmask import rundir
from tvmask.corpus.packing import (check_out_dir, check_seq_len, load_meta, load_packed,
                                   pack_to_arrays, save_packed)
from tvmask.corpus.reader import load_tagged_corpus
from tvmask.corpus.synth import write_corpus
from tvmask.corpus.vocab import build_vocab, check_vocab_size
from tvmask.masking import ACTION_NAMES, MaskPolicy, build_batch
from tvmask.rundir import JsonlSink
from tvmask.schedule import schedule_rows
from tvmask.trainer import (TrainAbort, check_checkpoint_corpus, check_eval_ratio,
                            checkpoint_path, checkpoint_steps, eval_mlm, load_checkpoint,
                            load_params, train)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we reserve that for aborts
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _int_at_least(minimum: int):
    """An argparse type: a whole number, in digits alone, of at least ``minimum``."""
    def parse(text):
        if not (text.isdecimal() and int(text) >= minimum):
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return int(text)
    return parse


# ---------------------------------------------------------------- prepare

def cmd_synth(args) -> int:
    n = write_corpus(args.out, args.tokens, args.seed)
    print(f"wrote {n} tokens to {args.out}")
    return EXIT_OK


def cmd_prepare(args) -> int:
    check_seq_len(args.L_seq)
    check_vocab_size(args.vocab_size)
    check_out_dir(args.out, args.force)
    corpus = load_tagged_corpus(args.corpus)
    vocab = build_vocab(corpus, args.vocab_size)
    tokens, pos_ids = pack_to_arrays(corpus, args.L_seq, vocab)
    try:
        save_packed(args.out, tokens, pos_ids, vocab, corpus.n_sentences, args.corpus)
    except OSError as err:  # a write cut short leaves no prepared corpus behind
        print(f"aborted: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"prepared {tokens.shape[0]} sequences of length {args.L_seq} "
          f"(vocab {vocab.size}) in {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- train

def _prepared_dir(prepared, source: str):
    """prepared, once it names a directory; ``source`` names the key or flag it came from."""
    if not prepared or not os.path.isdir(prepared):
        raise ValueError(f"{source} does not point at a prepared corpus: {prepared!r}")
    return prepared


def cmd_train(args) -> int:
    cfg = cfgmod.read(args.config)  # a missing file is an OSError naming it
    if args.steps is not None:  # the one override, validated with the file below
        cfg.train_T = args.steps
    with cfgmod.naming(args.config):
        cfg.validate()
    run_dir = args.out

    resume_step = rundir.resume_step(run_dir, cfg, args.resume, args.force)
    prepared = _prepared_dir(cfg.corpus_prepared, "corpus.prepared")
    tokens, pos_ids, _, vocab = load_packed(prepared)
    del _  # train derives its own special mask

    ckpt_dir = rundir.checkpoint_dir(run_dir)
    with rundir.lock(run_dir):
        state = None
        if resume_step is not None:
            state, ckpt_cfg, vocab_hash = load_checkpoint(checkpoint_path(ckpt_dir, resume_step))
            check_checkpoint_corpus(resume_step, ckpt_cfg, vocab_hash, prepared,
                                    vocab.content_hash(), tokens.shape[1])
            if ckpt_cfg != cfg.model_config(vocab.size, tokens.shape[1]):
                raise ValueError("checkpoint model config does not match run config")
        sink = JsonlSink(run_dir, cfg, resume_step)
        try:
            try:
                train(cfg, tokens, pos_ids, vocab, sink=sink, state=state, checkpoint_dir=ckpt_dir)
            finally:
                sink.close()
        except (TrainAbort, OSError, ValueError) as err:  # training had started
            print(f"aborted: {err}", file=sys.stderr)
            return EXIT_RUNTIME
    print(f"run complete: {run_dir} ({cfg.train_T} steps)")
    return EXIT_OK


# ---------------------------------------------------------------- export

def cmd_export_schedule(args) -> int:
    spec = cfgmod.load(args.config).schedule_spec()
    _write_csv(args.out, ["step", "ratio"], ((t, repr(r)) for t, r in schedule_rows(spec)))
    return EXIT_OK


def cmd_export(args) -> int:
    column = "cum_loss" if args.what == "losses" else "weight"
    rows = rundir.read_rows(args.run, rundir.SNAPSHOTS, ("category_name", column))
    _write_csv(args.out, ["step", "category", column],
               ((row["step"], row["category_name"], repr(row[column])) for row in rows))
    return EXIT_OK


def _write_csv(out_path, header, rows) -> None:
    sink = open(out_path, "w", encoding="utf-8") if out_path else sys.stdout
    try:
        sink.write(",".join(header) + "\n")
        for row in rows:
            sink.write(",".join(str(v) for v in row) + "\n")
    finally:
        if out_path:
            sink.close()


# ---------------------------------------------------------------- eval

def cmd_eval(args) -> int:
    check_eval_ratio(args.ratio)
    if args.checkpoint not in ("all", "latest") and not args.checkpoint.isdecimal():
        raise ValueError(f"--checkpoint must be a step number, 'all' or 'latest', "
                       f"got {args.checkpoint!r}")
    run_dir = args.run
    prepared = _prepared_dir(rundir.read_config(run_dir).corpus_prepared,
                             f"{os.path.join(run_dir, rundir.CONFIG)}: corpus.prepared")
    out = args.out or os.path.join(run_dir, rundir.EVAL_REPORT)
    if os.path.isdir(out) or not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise ValueError(f"cannot write the report to {out}: not a file in an existing directory")
    ckpt_dir = rundir.checkpoint_dir(run_dir)
    steps = checkpoint_steps(ckpt_dir)
    if args.checkpoint == "latest":
        steps = steps[-1:]
    elif args.checkpoint != "all":
        if int(args.checkpoint) not in steps:
            raise ValueError(f"no checkpoint at step {int(args.checkpoint)} in {ckpt_dir}")
        steps = [int(args.checkpoint)]
    if not steps:
        raise ValueError(f"no checkpoints found in {run_dir}")
    meta, vocab = load_meta(prepared)
    L_seq = meta["L_seq"]
    tokens, pos_ids = pack_to_arrays(load_tagged_corpus(args.heldout), L_seq, vocab)

    report = {"run": os.path.abspath(run_dir), "heldout": os.path.abspath(args.heldout),
              "ratio": args.ratio, "seed": args.seed, "checkpoints": []}
    for step in steps:
        params, model_cfg, vocab_hash = load_params(checkpoint_path(ckpt_dir, step))
        check_checkpoint_corpus(step, model_cfg, vocab_hash, prepared, meta["vocab_hash"], L_seq)
        result = eval_mlm(params, model_cfg, tokens, pos_ids, vocab,
                          ratio=args.ratio, seed=args.seed)
        result["step"] = step
        report["checkpoints"].append(result)
        g = {name: "n/a" if loss is None else f"{loss:.4f}"
             for name, loss in result["groups"].items()}
        print(f"step {step}: overall {result['overall']:.4f}  "
              f"function {g['function']}  non_function {g['non_function']}")
    with open(out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"report written to {out}")
    return EXIT_OK


# ---------------------------------------------------------------- debug

def cmd_mask_debug(args) -> int:
    try:
        rows = [int(r) for r in args.rows.split(",")]
    except ValueError:
        raise ValueError(f"--rows must be comma-separated sequence numbers, "
                         f"got {args.rows!r}") from None
    tokens, pos_ids, special, vocab = load_packed(_prepared_dir(args.prepared, "--prepared"))
    n_sequences = tokens.shape[0]
    for row in rows:
        if not 0 <= row < n_sequences:
            raise ValueError(f"--rows {row} is outside the corpus's {n_sequences} sequences "
                           f"(0 to {n_sequences - 1})")
    plan = build_batch(tokens[rows], pos_ids[rows], special[rows], args.ratio,
                       MaskPolicy(), vocab, np.random.default_rng(args.seed))
    plans = []
    for j, row in enumerate(rows):
        mine = plan.rows == j
        plans.append({
            "sequence": row,
            "masked_indices": plan.cols[mine].tolist(),
            "actions": [ACTION_NAMES[a] for a in plan.actions[mine]],
            "labels": plan.labels[mine].tolist(),
        })
    json.dump(plans, sys.stdout, indent=2)
    print()
    return EXIT_OK


# ---------------------------------------------------------------- main

def build_parser() -> _Parser:
    parser = _Parser(prog="tvmask", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic tagged corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--tokens", type=_int_at_least(1), default=1_000_000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", help="build vocabulary and packed sequences")
    p.add_argument("--corpus", required=True, help="tagged text: FORM<TAB>UPOS lines")
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-size", type=int, default=8192)
    p.add_argument("--L-seq", dest="L_seq", type=int, default=128)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="run MLM training from a config file")
    p.add_argument("config")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--steps", type=_int_at_least(0), help="total steps T (overrides train.T)")
    start = p.add_mutually_exclusive_group()
    start.add_argument("--resume", action="store_true", help="continue from the last checkpoint")
    start.add_argument("--force", action="store_true", help="overwrite an existing run")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("export-schedule",
                       help="dump a config file's (step, ratio) schedule as CSV")
    p.add_argument("config", help="config file, such as a run's config.txt")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_export_schedule)

    p = sub.add_parser("export", help="dump a run's per-category losses or weights as CSV")
    p.add_argument("--run", required=True)
    p.add_argument("--what", required=True, choices=["losses", "weights"])
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("eval", help="held-out MLM evaluation per checkpoint")
    p.add_argument("--run", required=True)
    p.add_argument("--heldout", required=True, help="tagged text file")
    p.add_argument("--checkpoint", default="all", help="step number, 'all' or 'latest'")
    p.add_argument("--ratio", type=float, default=0.15)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", help=f"report path (default <run>/{rundir.EVAL_REPORT})")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mask-debug", help="dump random-strategy mask plans as JSON")
    p.add_argument("--prepared", required=True)
    p.add_argument("--rows", default="0")
    p.add_argument("--ratio", type=float, default=0.15)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_mask_debug)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as err:  # usage, config, corpus and path errors
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
