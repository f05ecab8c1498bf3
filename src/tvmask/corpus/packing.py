"""Fixed-length training sequences: [CLS] + packed pieces + [SEP] + padding.

Packing is word-atomic: consecutive sentences flow into one sequence and
may continue into the next, but a word's pieces stay together unless the
single word is longer than L_seq - 2. Every piece carries its word's
category id. Output order is deterministic corpus order; shuffling is the
trainer's job.

This module is the prepared-corpus directory's one writer and reader: the
vocabulary, stats, the two matrices and meta.json, which marks it whole.
"""

from __future__ import annotations

import json
import os
from itertools import chain

import numpy as np

from tvmask.corpus.reader import TaggedCorpus
from tvmask.corpus.tokenizer import tokenize_word
from tvmask.corpus.vocab import Vocabulary
from tvmask.postags import UPOS_TAGS, X_ID

MIN_SEQ_LEN = 8

VOCAB, STATS, META = "vocab.txt", "stats.json", "meta.json"
ARRAYS = ("tokens.npy", "pos_ids.npy")


def check_seq_len(L_seq: int) -> None:
    """Raise ValueError unless L_seq leaves room for [CLS], [SEP] and a body."""
    if L_seq < MIN_SEQ_LEN:
        raise ValueError(f"L_seq must be >= {MIN_SEQ_LEN}, got {L_seq}")


def special_positions(tokens: np.ndarray) -> np.ndarray:
    """True at [CLS], [SEP] and [PAD]; tokenize_word puts no reserved id but [UNK] in a body."""
    v = Vocabulary
    return (tokens == v.cls_id) | (tokens == v.sep_id) | (tokens == v.pad_id)


def pack_to_arrays(corpus: TaggedCorpus, L_seq: int,
                   vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """Tokenize a tagged corpus and pack it into (tokens, pos_ids) matrices
    of shape [n_sequences, L_seq]; special_positions(tokens) gives their special mask.

    Each distinct form is tokenized once, and every token's piece ids are
    gathered from those. A row takes the words that fit whole; a word
    that would straddle the row's end starts the next row, unless it is
    longer than a row's body, in which case it fills the row and spills on.
    """
    check_seq_len(L_seq)
    capacity = L_seq - 2
    form_pieces = [tokenize_word(form, vocab) for form in corpus.forms]
    form_len = np.fromiter(map(len, form_pieces), dtype=np.int64, count=len(form_pieces))
    form_start = np.cumsum(form_len) - form_len  # offset of each form's pieces in flat
    word_len = form_len[corpus.form_ids]
    bounds = np.concatenate(([0], np.cumsum(word_len)))  # piece offset of each word, and the end
    total = int(bounds[-1])
    if total == 0:
        raise ValueError("no sequences produced; corpus empty?")
    flat = np.fromiter(chain.from_iterable(form_pieces), dtype=np.int32, count=int(form_len.sum()))
    gather = np.repeat(form_start[corpus.form_ids] - bounds[:-1], word_len)
    gather += np.arange(total)  # index into flat of every piece, in corpus order

    breaks = []  # piece offset where each row's body ends
    end = 0
    while end + capacity < total:
        limit = end + capacity
        w = int(np.searchsorted(bounds, limit, side="right")) - 1  # the word at the limit
        start = int(bounds[w])
        end = start if bounds[w + 1] - start <= capacity else limit
        breaks.append(end)
    breaks.append(total)
    body = np.diff(breaks, prepend=0)
    cols = np.arange(L_seq)
    in_body = (cols >= 1) & (cols <= body[:, None])
    tokens = np.full((len(body), L_seq), vocab.pad_id, dtype=np.int32)
    tokens[:, 0] = vocab.cls_id
    tokens[in_body] = flat[gather]
    tokens[np.arange(len(body)), body + 1] = vocab.sep_id
    pos_ids = np.full((len(body), L_seq), X_ID, dtype=np.int8)
    pos_ids[in_body] = np.repeat(corpus.categories, word_len)
    return tokens, pos_ids


def check_out_dir(out_dir, force: bool) -> None:
    """Raise ValueError unless save_packed may write a prepared corpus to out_dir."""
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise ValueError(f"{out_dir} exists and is not a directory")
    if os.path.exists(os.path.join(out_dir, META)) and not force:
        raise ValueError(f"{out_dir} already contains a prepared corpus (use --force)")


def save_packed(out_dir, tokens: np.ndarray, pos_ids: np.ndarray, vocab: Vocabulary,
                n_sentences: int, corpus_path) -> None:
    """Write the whole prepared corpus. meta.json is removed first and written
    last, so a rewrite cut short leaves no prepared corpus behind."""
    meta_path = os.path.join(out_dir, META)
    os.makedirs(out_dir, exist_ok=True)
    if os.path.exists(meta_path):
        os.remove(meta_path)
    vocab.save(os.path.join(out_dir, VOCAB))
    counts = np.bincount(pos_ids[~special_positions(tokens)], minlength=len(UPOS_TAGS))
    _write_json(os.path.join(out_dir, STATS), {
        "n_sentences": n_sentences, "n_sequences": tokens.shape[0],
        "n_subword_tokens": int(counts.sum()),
        "tokens_per_category": {tag: int(n) for tag, n in zip(UPOS_TAGS, counts)}})
    for name, array in zip(ARRAYS, (tokens, pos_ids)):
        np.save(os.path.join(out_dir, name), array)
    _write_json(meta_path, {"L_seq": tokens.shape[1], "vocab_size": vocab.size,
                            "vocab_hash": vocab.content_hash(), "n_sequences": tokens.shape[0],
                            "source": os.path.abspath(corpus_path)})


def load_meta(prepared_dir) -> tuple[dict, Vocabulary]:
    """(meta, vocab) of a prepared corpus: meta.json, with its integer L_seq and
    n_sequences and its string vocab_hash checked, and the vocabulary of that hash."""
    path = os.path.join(prepared_dir, META)
    with open(path, encoding="utf-8") as f:
        try:
            meta = json.load(f)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path} is not valid JSON: {err}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    for key, kind, what in (("L_seq", int, "an integer"), ("n_sequences", int, "an integer"),
                            ("vocab_hash", str, "a string")):
        if type(meta.get(key)) is not kind:
            raise ValueError(f"{path}: {key} must be {what}, got {meta.get(key)!r}")
    vocab = Vocabulary.load(os.path.join(prepared_dir, VOCAB))
    if vocab.content_hash() != meta["vocab_hash"]:
        raise ValueError(f"vocabulary in {prepared_dir} does not match its meta.json hash")
    return meta, vocab


def load_packed(prepared_dir) -> tuple[np.ndarray, np.ndarray, np.ndarray, Vocabulary]:
    """(tokens, pos_ids, special, vocab) of a prepared corpus, read through
    load_meta; special is computed from tokens. The arrays must have meta.json's shape."""
    meta, vocab = load_meta(prepared_dir)
    tokens, pos_ids = (np.load(os.path.join(prepared_dir, name)) for name in ARRAYS)
    shape = (meta["n_sequences"], meta["L_seq"])
    if not tokens.shape == pos_ids.shape == shape:
        raise ValueError(f"arrays in {prepared_dir} do not match its meta.json shape {shape}")
    return tokens, pos_ids, special_positions(tokens), vocab


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
