"""Frequency-based subword vocabulary with wordpiece-style continuation pieces."""

from __future__ import annotations

import hashlib
import heapq

import numpy as np

from tvmask.corpus.reader import TaggedCorpus

RESERVED_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
CONTINUATION = "##"

MAX_PIECE_LEN = 16


class Vocabulary:
    """Token string <-> id map with fixed reserved ids at the front."""

    pad_id = 0
    unk_id = 1
    cls_id = 2
    sep_id = 3
    mask_id = 4
    n_reserved = len(RESERVED_TOKENS)

    def __init__(self, tokens: list[str]):
        if tuple(tokens[: self.n_reserved]) != RESERVED_TOKENS:
            raise ValueError(f"vocabulary must start with {RESERVED_TOKENS}")
        self.tokens = list(tokens)
        self.token_to_id = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.token_to_id) != len(self.tokens):
            raise ValueError("duplicate token in vocabulary")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.tokens:
                f.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as f:
            tokens = [line.rstrip("\n") for line in f]
        return cls(tokens)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for tok in self.tokens:
            h.update(tok.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


def check_vocab_size(vocab_size: int) -> None:
    """Raise ValueError unless vocab_size holds at least the reserved tokens."""
    if vocab_size < len(RESERVED_TOKENS):
        raise ValueError(f"vocab_size must be >= {len(RESERVED_TOKENS)}, got {vocab_size}")


def build_vocab(corpus: TaggedCorpus, vocab_size: int) -> Vocabulary:
    """Build a subword vocabulary of at most vocab_size entries.

    Candidate pieces are all substrings (up to MAX_PIECE_LEN chars) of
    corpus words, continuation-marked when word-internal, counted with
    the word's frequency. Single-character pieces are admitted first so
    greedy matching rarely falls back to [UNK]; the rest fill by
    descending count, ties broken lexicographically. Deterministic for a
    given corpus and size.

    Pieces are counted once per distinct word, with the word's count from
    one bincount over the corpus's form ids. Only the longer pieces that
    fit are ranked: heapq.nsmallest equals a full sort's prefix.
    """
    check_vocab_size(vocab_size)
    word_freq = np.bincount(corpus.form_ids, minlength=len(corpus.forms)).tolist()

    piece_freq: dict[str, int] = {}
    for word, freq in zip(corpus.forms, word_freq):
        n = len(word)
        for i in range(n):
            top = min(n, i + MAX_PIECE_LEN)
            for j in range(i + 1, top + 1):
                piece = word[i:j] if i == 0 else CONTINUATION + word[i:j]
                piece_freq[piece] = piece_freq.get(piece, 0) + freq

    for reserved in RESERVED_TOKENS:  # a corpus word spelled [PAD] is not the pad token
        piece_freq.pop(reserved, None)

    def by_count(kv):
        return -kv[1], kv[0]

    singles_initial = sorted(
        ((p, c) for p, c in piece_freq.items() if len(p) == 1), key=by_count
    )
    singles_cont = sorted(
        ((p, c) for p, c in piece_freq.items() if p.startswith(CONTINUATION) and len(p) == 3),
        key=by_count,
    )
    room = vocab_size - len(RESERVED_TOKENS) - len(singles_initial) - len(singles_cont)
    rest = heapq.nsmallest(
        max(room, 0),
        ((p, c)
         for p, c in piece_freq.items()
         if len(p) > 1 and not (p.startswith(CONTINUATION) and len(p) == 3)),
        key=by_count,
    )

    pieces = [piece for piece, _count in singles_initial + singles_cont + rest]
    return Vocabulary(list(RESERVED_TOKENS) + pieces[: vocab_size - len(RESERVED_TOKENS)])
