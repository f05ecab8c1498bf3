"""Greedy longest-match subword tokenization of one word.

Tags are assigned per word upstream. The packer
(``tvmask.corpus.packing.pack_to_arrays``) aligns them: every piece of a
word inherits that word's category id, so masking can weight pieces by
category.
"""

from __future__ import annotations

from tvmask.corpus.vocab import CONTINUATION, Vocabulary

MAX_WORD_CHARS = 100  # longer words go straight to [UNK]


def tokenize_word(word: str, vocab: Vocabulary) -> list[int]:
    """Split one word into piece ids by greedy longest match; [UNK] if any
    remainder cannot be matched."""
    if len(word) > MAX_WORD_CHARS:
        return [vocab.unk_id]
    pieces: list[int] = []
    start = 0
    n = len(word)
    while start < n:
        end = n
        found = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = CONTINUATION + piece
            pid = vocab.token_to_id.get(piece)
            if pid is not None and pid >= vocab.n_reserved:  # never a reserved token
                found = pid
                break
            end -= 1
        if found is None:
            return [vocab.unk_id]
        pieces.append(found)
        start = end
    return pieces
