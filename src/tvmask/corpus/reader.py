"""Reader for pre-tagged text: one "FORM<TAB>UPOS" token per line, blank
line between sentences (the FORM/UPOS columns of CoNLL-U). POS tagging
itself happens upstream; we only consume its output.

A corpus is held in columns: the distinct forms, one form id and one
category id per token, and the sentence count. Packing lets sentences
flow into each other, so nothing downstream needs the sentence
boundaries themselves.
"""

from __future__ import annotations

import logging
import os
from array import array
from dataclasses import dataclass

import numpy as np

from tvmask.postags import N_CATEGORIES, is_known_tag, pos_id

log = logging.getLogger(__name__)

READ_BLOCK_CHARS = 1 << 20  # lines are read about this many characters at a time

# line codes: a record line is form_id * N_CATEGORIES + category (>= 0)
BLANK = -1
COMMENT = -2


class CorpusFormatError(ValueError):
    pass


@dataclass(frozen=True)
class TaggedCorpus:
    """A tagged corpus in columns. ``forms`` are the distinct word forms in
    order of first use; token i is ``forms[form_ids[i]]`` tagged
    ``categories[i]``."""

    forms: list[str]
    form_ids: np.ndarray    # int32, one per token
    categories: np.ndarray  # int8, one per token
    n_sentences: int

    @classmethod
    def from_sentences(cls, sentences) -> TaggedCorpus:
        """The corpus of in-memory (form, category_id) sentences."""
        ids: dict[str, int] = {}
        form_ids, categories = array("i"), array("b")
        n_sentences = 0
        for sentence in sentences:
            n_sentences += bool(sentence)
            for form, category in sentence:
                form_ids.append(ids.setdefault(form, len(ids)))
                categories.append(category)
        return cls(list(ids), np.array(form_ids, dtype=np.int32),
                   np.array(categories, dtype=np.int8), n_sentences)


def _is_comment(line: str) -> bool:
    """A line starting with '#' is a comment, unless it is the record of the
    form '#': exactly two tab-separated fields, the first exactly '#'."""
    if not line.startswith("#"):
        return False
    fields = line.split("\t")
    return len(fields) != 2 or fields[0] != "#"


def load_tagged_corpus(path) -> TaggedCorpus:
    """Read a tagged corpus file into columns.

    Unknown tag names map to X with one warning per tag. Comment lines
    (see ``_is_comment``) are skipped, and a leading UTF-8 byte-order mark
    is ignored. Raises CorpusFormatError with the offending line number on
    malformed records, and on a corpus with no sentences.

    Lines are read in blocks, and each line is looked up in a table of the
    distinct lines seen so far, which gives its code. Only an unseen line
    is split and checked, in order of first occurrence, so errors and
    warnings name the line where the problem first occurs.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"tagged corpus not found: {path}")
    codes_of: dict[str, int] = {}  # line as read -> its code
    form_id_of: dict[str, int] = {}
    warned: set[str] = set()

    def code_of(line: str, block: list[str], n_before: int) -> int:
        """The code of a line first seen in block, which follows n_before lines.
        Its line number is looked up only for a message."""
        text = line.rstrip("\n").rstrip("\r")
        if _is_comment(text):
            return COMMENT
        if not text.strip():
            return BLANK
        fields = text.split("\t")
        if len(fields) != 2:
            fields = text.split()
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise CorpusFormatError(f"{path}:{n_before + block.index(line) + 1}: "
                                    f"expected 'FORM<TAB>UPOS', got {text!r}")
        form, tag = fields
        if not is_known_tag(tag) and tag not in warned:
            warned.add(tag)
            log.warning("%s:%d: unknown POS tag %r mapped to X",
                        path, n_before + block.index(line) + 1, tag)
        return form_id_of.setdefault(form, len(form_id_of)) * N_CATEGORIES + pos_id(tag)

    token_codes: list[np.ndarray] = []
    n_sentences = 0
    in_sentence = False  # whether the last record-or-blank line was a record
    n_lines = 0
    with open(path, encoding="utf-8-sig") as f:
        while block := f.readlines(READ_BLOCK_CHARS):
            for line in dict.fromkeys(block):  # distinct lines, in order of first occurrence
                if line not in codes_of:
                    codes_of[line] = code_of(line, block, n_lines)
            n_lines += len(block)
            line_codes = np.array(list(map(codes_of.__getitem__, block)), dtype=np.int64)
            is_record = np.concatenate(([in_sentence], line_codes[line_codes != COMMENT] >= 0))
            n_sentences += int(np.count_nonzero(is_record[1:] & ~is_record[:-1]))
            in_sentence = bool(is_record[-1])
            token_codes.append(line_codes[line_codes >= 0])
    if n_sentences == 0:
        raise CorpusFormatError(f"{path}: corpus contains no sentences")
    form_ids, categories = np.divmod(np.concatenate(token_codes), N_CATEGORIES)
    return TaggedCorpus(list(form_id_of), form_ids.astype(np.int32),
                        categories.astype(np.int8), n_sentences)
