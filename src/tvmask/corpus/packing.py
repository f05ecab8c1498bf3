"""Fixed-length training sequences: [CLS] + packed pieces + [SEP] + padding.

Packing is word-atomic: consecutive sentences flow into one sequence and
may continue into the next, but a word's pieces stay together unless the
single word is longer than L_seq - 2. Output order is deterministic
corpus order; shuffling is the trainer's job.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from tvmask.corpus.tokenizer import SentenceFragment
from tvmask.corpus.vocab import Vocabulary
from tvmask.postags import X_ID

MIN_SEQ_LEN = 8


@dataclass
class TaggedSequence:
    """Aligned token ids, category ids, and special-token flags."""

    token_ids: np.ndarray
    pos_ids: np.ndarray
    special_mask: np.ndarray

    def __post_init__(self):
        if not (len(self.token_ids) == len(self.pos_ids) == len(self.special_mask)):
            raise ValueError("token_ids, pos_ids and special_mask must be the same length")

    @property
    def n_maskable(self) -> int:
        return int(np.count_nonzero(~self.special_mask))


def pack_sequences(
    fragments: Iterable[SentenceFragment], L_seq: int, vocab: Vocabulary
) -> Iterator[TaggedSequence]:
    """Pack tokenized sentences into TaggedSequences of exactly L_seq."""
    if L_seq < MIN_SEQ_LEN:
        raise ValueError(f"L_seq must be >= {MIN_SEQ_LEN}, got {L_seq}")
    capacity = L_seq - 2
    buf_tokens: list[int] = []
    buf_pos: list[int] = []

    def emit() -> TaggedSequence:
        body = len(buf_tokens)
        tokens = np.empty(L_seq, dtype=np.int32)
        pos = np.full(L_seq, X_ID, dtype=np.int8)
        special = np.zeros(L_seq, dtype=bool)
        tokens[0] = vocab.cls_id
        tokens[1 : 1 + body] = buf_tokens
        tokens[1 + body] = vocab.sep_id
        tokens[2 + body :] = vocab.pad_id
        pos[1 : 1 + body] = buf_pos
        special[0] = True
        special[1 + body :] = True  # SEP and all padding
        buf_tokens.clear()
        buf_pos.clear()
        return TaggedSequence(tokens, pos, special)

    for frag in fragments:
        offset = 0
        for wlen in frag.word_lengths:
            wlen = int(wlen)
            w_tokens = frag.token_ids[offset : offset + wlen]
            w_pos = frag.pos_ids[offset : offset + wlen]
            offset += wlen
            if wlen > capacity:
                # oversized word: the one case where a word may split
                taken = 0
                while taken < wlen:
                    space = capacity - len(buf_tokens)
                    if space == 0:
                        yield emit()
                        continue
                    chunk = min(space, wlen - taken)
                    buf_tokens.extend(int(t) for t in w_tokens[taken : taken + chunk])
                    buf_pos.extend(int(p) for p in w_pos[taken : taken + chunk])
                    taken += chunk
                continue
            if len(buf_tokens) + wlen > capacity:
                yield emit()
            buf_tokens.extend(int(t) for t in w_tokens)
            buf_pos.extend(int(p) for p in w_pos)
    if buf_tokens:
        yield emit()


def pack_to_arrays(
    fragments: Iterable[SentenceFragment], L_seq: int, vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialize packed sequences as (tokens, pos_ids, special) matrices."""
    tokens, pos, special = [], [], []
    for seq in pack_sequences(fragments, L_seq, vocab):
        tokens.append(seq.token_ids)
        pos.append(seq.pos_ids)
        special.append(seq.special_mask)
    if not tokens:
        raise ValueError("no sequences produced; corpus empty?")
    return np.stack(tokens), np.stack(pos), np.stack(special)


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
