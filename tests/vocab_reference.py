"""Reference piece ranking for tests: every candidate piece ranked by a
full sort, as ``build_vocab`` once did.

``build_vocab(sentences, size).tokens`` must equal the reserved tokens
followed by the three ranked groups of ``ranked_groups``, cut at size; the
randomized test in test_corpus.py holds it to that.
"""

from __future__ import annotations

from collections import Counter

from tvmask.corpus.vocab import CONTINUATION, MAX_PIECE_LEN, RESERVED_TOKENS


def ranked_groups(sentences):
    """(initial singles, continuation singles, rest): every candidate piece,
    each group sorted by descending count, ties lexicographically."""
    word_freq: Counter[str] = Counter()
    for sentence in sentences:
        for form, _pos in sentence:
            word_freq[form] += 1
    piece_freq: Counter[str] = Counter()
    for word, freq in word_freq.items():
        for i in range(len(word)):
            for j in range(i + 1, min(len(word), i + MAX_PIECE_LEN) + 1):
                piece_freq[word[i:j] if i == 0 else CONTINUATION + word[i:j]] += freq
    for reserved in RESERVED_TOKENS:
        piece_freq.pop(reserved, None)

    def is_cont_single(piece):
        return piece.startswith(CONTINUATION) and len(piece) == 3

    ranked = sorted(piece_freq.items(), key=lambda kv: (-kv[1], kv[0]))
    return ([p for p, _ in ranked if len(p) == 1],
            [p for p, _ in ranked if is_cont_single(p)],
            [p for p, _ in ranked if len(p) > 1 and not is_cont_single(p)])

