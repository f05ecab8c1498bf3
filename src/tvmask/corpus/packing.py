"""Fixed-length training sequences: [CLS] + packed pieces + [SEP] + padding.

Packing is word-atomic: consecutive sentences flow into one sequence and
may continue into the next, but a word's pieces stay together unless the
single word is longer than L_seq - 2. Every piece carries its word's
category id. Output order is deterministic corpus order; shuffling is the
trainer's job.

This module is the prepared-corpus directory's one writer and reader: the
vocabulary, stats, the three matrices and meta.json, which marks it whole.
"""

from __future__ import annotations

import json
import os
from array import array
from typing import Iterable

import numpy as np

from tvmask.corpus.tokenizer import tokenize_word
from tvmask.corpus.vocab import Vocabulary
from tvmask.postags import UPOS_TAGS, X_ID

MIN_SEQ_LEN = 8

VOCAB, STATS, META = "vocab.txt", "stats.json", "meta.json"
ARRAYS = ("tokens.npy", "pos_ids.npy", "special.npy")


def check_seq_len(L_seq: int) -> None:
    """Raise ValueError unless L_seq leaves room for [CLS], [SEP] and a body."""
    if L_seq < MIN_SEQ_LEN:
        raise ValueError(f"L_seq must be >= {MIN_SEQ_LEN}, got {L_seq}")


def pack_to_arrays(
    sentences: Iterable[list[tuple[str, int]]], L_seq: int, vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tokenize (form, category) sentences and pack them into
    (tokens, pos_ids, special) matrices of shape [n_sequences, L_seq].

    Each distinct form is tokenized once; its repeats reuse those piece ids.
    """
    check_seq_len(L_seq)
    capacity = L_seq - 2
    ids, cats = array("i"), array("b")  # every piece, in corpus order
    bodies: list[int] = []  # pieces per finished row
    fill = 0
    form_pieces: dict[str, list[int]] = {}
    for sentence in sentences:
        for form, pos in sentence:
            pieces = form_pieces.get(form)
            if pieces is None:
                pieces = form_pieces[form] = tokenize_word(form, vocab)
            n = len(pieces)
            ids.extend(pieces)
            cats.extend([pos] * n)
            if n > capacity:  # oversized word: the one case where a word may split
                while n:
                    if fill == capacity:
                        bodies.append(fill)
                        fill = 0
                    take = min(capacity - fill, n)
                    fill += take
                    n -= take
                continue
            if fill + n > capacity:
                bodies.append(fill)
                fill = 0
            fill += n
    if fill:
        bodies.append(fill)
    if not bodies:
        raise ValueError("no sequences produced; corpus empty?")
    body = np.asarray(bodies)
    cols = np.arange(L_seq)
    in_body = (cols >= 1) & (cols <= body[:, None])
    tokens = np.full((len(body), L_seq), vocab.pad_id, dtype=np.int32)
    tokens[:, 0] = vocab.cls_id
    tokens[in_body] = np.frombuffer(ids, dtype=np.intc)
    tokens[np.arange(len(body)), body + 1] = vocab.sep_id
    pos_ids = np.full((len(body), L_seq), X_ID, dtype=np.int8)
    pos_ids[in_body] = np.frombuffer(cats, dtype=np.int8)
    return tokens, pos_ids, ~in_body


def check_out_dir(out_dir, force: bool) -> None:
    """Raise ValueError unless save_packed may write a prepared corpus to out_dir."""
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise ValueError(f"{out_dir} exists and is not a directory")
    if os.path.exists(os.path.join(out_dir, META)) and not force:
        raise ValueError(f"{out_dir} already contains a prepared corpus (use --force)")


def save_packed(out_dir, tokens: np.ndarray, pos_ids: np.ndarray, special: np.ndarray,
                vocab: Vocabulary, n_sentences: int, corpus_path) -> None:
    """Write the whole prepared corpus. meta.json is removed first and written
    last, so a rewrite cut short leaves no prepared corpus behind."""
    meta_path = os.path.join(out_dir, META)
    os.makedirs(out_dir, exist_ok=True)
    if os.path.exists(meta_path):
        os.remove(meta_path)
    vocab.save(os.path.join(out_dir, VOCAB))
    counts = np.bincount(pos_ids[~special], minlength=len(UPOS_TAGS))
    _write_json(os.path.join(out_dir, STATS), {
        "n_sentences": n_sentences, "n_sequences": tokens.shape[0],
        "n_subword_tokens": int(counts.sum()),
        "tokens_per_category": {tag: int(n) for tag, n in zip(UPOS_TAGS, counts)}})
    for name, array in zip(ARRAYS, (tokens, pos_ids, special)):
        np.save(os.path.join(out_dir, name), array)
    _write_json(meta_path, {"L_seq": tokens.shape[1], "vocab_size": vocab.size,
                            "vocab_hash": vocab.content_hash(), "n_sequences": tokens.shape[0],
                            "source": os.path.abspath(corpus_path)})


def load_packed(prepared_dir) -> tuple[np.ndarray, np.ndarray, np.ndarray, Vocabulary]:
    """(tokens, pos_ids, special, vocab) of a prepared corpus. The arrays must
    have meta.json's shape and the vocabulary its hash."""
    with open(os.path.join(prepared_dir, META), encoding="utf-8") as f:
        meta = json.load(f)
    tokens, pos_ids, special = (np.load(os.path.join(prepared_dir, name)) for name in ARRAYS)
    shape = (meta["n_sequences"], meta["L_seq"])
    if not tokens.shape == pos_ids.shape == special.shape == shape:
        raise ValueError(f"arrays in {prepared_dir} do not match its meta.json shape {shape}")
    vocab = Vocabulary.load(os.path.join(prepared_dir, VOCAB))
    if vocab.content_hash() != meta["vocab_hash"]:
        raise ValueError(f"vocabulary in {prepared_dir} does not match its meta.json hash")
    return tokens, pos_ids, special, vocab


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
