"""Reference reader and packer for tests, on (form, category_id) sentences.

``read_sentences`` parses every line of a tagged corpus file on its own.
``reference_pack`` is the earlier two-step path: tokenize each sentence
into a fragment, then pack fragments into sequences one by one.

``load_tagged_corpus`` must read what ``read_sentences`` does, and
``pack_to_arrays`` must produce exactly what ``reference_pack`` does; the
randomized tests in test_corpus.py hold them to that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tvmask.corpus.packing import MIN_SEQ_LEN
from tvmask.corpus.reader import CorpusFormatError
from tvmask.corpus.tokenizer import tokenize_word
from tvmask.postags import X_ID, pos_id


def read_sentences(path):
    """The file's sentences: runs of record lines between blank lines. A line
    starting with '#' is a comment unless it is '#', one tab and a tag."""
    sentences, sentence = [], []
    with open(path, encoding="utf-8-sig") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if line.startswith("#") and not (line.startswith("#\t") and line.count("\t") == 1):
                continue
            if not line.strip():
                if sentence:
                    sentences.append(sentence)
                    sentence = []
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                fields = line.split()
            if len(fields) != 2 or not fields[0] or not fields[1]:
                raise CorpusFormatError(f"{path}:{lineno}: malformed record {line!r}")
            sentence.append((fields[0], pos_id(fields[1])))
    if sentence:
        sentences.append(sentence)
    return sentences


@dataclass
class SentenceFragment:
    token_ids: np.ndarray     # int32 piece ids
    pos_ids: np.ndarray       # int8 category id per piece
    word_lengths: np.ndarray  # pieces per word, for word-atomic packing


def tokenize_aligned(sentence, vocab) -> SentenceFragment:
    token_ids, pos_ids, word_lengths = [], [], []
    for form, pos in sentence:
        ids = tokenize_word(form, vocab)
        token_ids.extend(ids)
        pos_ids.extend([pos] * len(ids))
        word_lengths.append(len(ids))
    return SentenceFragment(np.asarray(token_ids, dtype=np.int32),
                            np.asarray(pos_ids, dtype=np.int8),
                            np.asarray(word_lengths, dtype=np.int32))


def pack_sequences(fragments, L_seq, vocab):
    """Yield (token_ids, pos_ids, special_mask) rows of exactly L_seq."""
    if L_seq < MIN_SEQ_LEN:
        raise ValueError(f"L_seq must be >= {MIN_SEQ_LEN}, got {L_seq}")
    capacity = L_seq - 2
    buf_tokens: list[int] = []
    buf_pos: list[int] = []

    def emit():
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
        return tokens, pos, special

    for frag in fragments:
        offset = 0
        for wlen in frag.word_lengths:
            wlen = int(wlen)
            w_tokens = frag.token_ids[offset : offset + wlen]
            w_pos = frag.pos_ids[offset : offset + wlen]
            offset += wlen
            if wlen > capacity:
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


def reference_pack(sentences, L_seq, vocab):
    """(tokens, pos_ids, special) matrices by the two-step path."""
    rows = list(pack_sequences((tokenize_aligned(s, vocab) for s in sentences), L_seq, vocab))
    if not rows:
        raise ValueError("no sequences produced; corpus empty?")
    return tuple(np.stack(col) for col in zip(*rows))
