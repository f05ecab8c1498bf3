"""Fixed-length training sequences: [CLS] + packed pieces + [SEP] + padding.

Packing is word-atomic: consecutive sentences flow into one sequence and
may continue into the next, but a word's pieces stay together unless the
single word is longer than L_seq - 2. Every piece carries its word's
category id. Output order is deterministic corpus order; shuffling is the
trainer's job.
"""

from __future__ import annotations

import json
import os
from array import array
from typing import Iterable

import numpy as np

from tvmask.corpus.tokenizer import tokenize_word
from tvmask.corpus.vocab import Vocabulary
from tvmask.postags import X_ID

MIN_SEQ_LEN = 8


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


def save_packed(out_dir, tokens: np.ndarray, pos: np.ndarray, special: np.ndarray, meta: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    np.save(os.path.join(out_dir, "tokens.npy"), tokens)
    np.save(os.path.join(out_dir, "pos_ids.npy"), pos)
    np.save(os.path.join(out_dir, "special.npy"), special)
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def load_packed(prepared_dir) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    tokens = np.load(os.path.join(prepared_dir, "tokens.npy"))
    pos = np.load(os.path.join(prepared_dir, "pos_ids.npy"))
    special = np.load(os.path.join(prepared_dir, "special.npy"))
    with open(os.path.join(prepared_dir, "meta.json"), encoding="utf-8") as f:
        meta = json.load(f)
    return tokens, pos, special, meta
