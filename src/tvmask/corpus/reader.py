"""Reader for pre-tagged text: one "FORM<TAB>UPOS" token per line, blank
line between sentences (the FORM/UPOS columns of CoNLL-U). POS tagging
itself happens upstream; we only consume its output."""

from __future__ import annotations

import logging
import os
from typing import Iterator

from tvmask.postags import is_known_tag, pos_id

log = logging.getLogger(__name__)


class CorpusFormatError(ValueError):
    pass


def load_tagged_corpus(path) -> Iterator[list[tuple[str, int]]]:
    """Yield sentences as lists of (form, category_id), in corpus order.

    Unknown tag names map to X with one warning per tag. Lines starting
    with '#' are comments, and a leading UTF-8 byte-order mark is ignored.
    Raises CorpusFormatError with the offending line number on malformed
    records, and on a corpus with no sentences.

    Each distinct record line is split and checked once, at its first
    occurrence; a repeat appends the record parsed then, so sentences
    share their (form, category_id) tuples. Errors and warnings name the
    same line numbers as parsing every line would.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"tagged corpus not found: {path}")
    warned: set[str] = set()
    records: dict[str, tuple[str, int]] = {}  # record line -> its parsed record
    sentence: list[tuple[str, int]] = []
    n_sentences = 0
    with open(path, encoding="utf-8-sig") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n").rstrip("\r")
            record = records.get(line)
            if record is not None:
                sentence.append(record)
                continue
            if line.startswith("#"):
                continue
            if not line.strip():
                if sentence:
                    yield sentence
                    n_sentences += 1
                    sentence = []
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                fields = line.split()
            if len(fields) != 2 or not fields[0] or not fields[1]:
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected 'FORM<TAB>UPOS', got {line!r}"
                )
            form, tag = fields
            if not is_known_tag(tag) and tag not in warned:
                warned.add(tag)
                log.warning("%s:%d: unknown POS tag %r mapped to X", path, lineno, tag)
            record = records[line] = (form, pos_id(tag))
            sentence.append(record)
    if sentence:
        yield sentence
        n_sentences += 1
    if n_sentences == 0:
        raise CorpusFormatError(f"{path}: corpus contains no sentences")
