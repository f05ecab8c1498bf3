from dataclasses import dataclass

import numpy as np
import pytest

from tvmask.corpus.vocab import RESERVED_TOKENS, Vocabulary
from tvmask.masking import MaskPolicy, build_batch, target_count


@pytest.fixture
def letters_vocab():
    """Reserved tokens plus a handful of letter tokens; enough for masker tests."""
    letters = [chr(ord("a") + i) for i in range(15)]
    return Vocabulary(list(RESERVED_TOKENS) + letters)


@dataclass
class Sequence:
    """One packed row: token ids, category ids and special-token flags."""

    token_ids: np.ndarray
    pos_ids: np.ndarray
    special_mask: np.ndarray

    @property
    def n_maskable(self) -> int:
        return int(np.count_nonzero(~self.special_mask))


def make_sequence(n=10, n_special_tail=2, pos_pattern=None, vocab_size=20):
    """Sequence with [CLS] ... [SEP]/[PAD] tail; deterministic token ids."""
    token_ids = np.arange(5, 5 + n, dtype=np.int32) % vocab_size
    special = np.zeros(n, dtype=bool)
    special[0] = True
    if n_special_tail:
        special[-n_special_tail:] = True
    token_ids[0] = 2  # [CLS]
    if n_special_tail:
        token_ids[-n_special_tail] = 3  # [SEP]
        token_ids[len(token_ids) - n_special_tail + 1 :] = 0  # [PAD]
    if pos_pattern is None:
        pos_pattern = [0]
    pos = np.array([pos_pattern[i % len(pos_pattern)] for i in range(n)], dtype=np.int8)
    return Sequence(token_ids, pos, special)


def plan_one(seq, count, vocab, rng, policy=None, weights_by_category=None):
    """build_batch on the one sequence ``seq``, at the ratio that masks
    exactly ``count`` of its maskable positions. The policy defaults to
    ptw when category weights are given, else to random."""
    m = seq.n_maskable
    ratio = max(count - 0.25, 0.0) / m
    assert target_count(ratio, m) == count
    if policy is None:
        policy = MaskPolicy(strategy="random" if weights_by_category is None else "ptw")
    return build_batch(seq.token_ids[None], seq.pos_ids[None], seq.special_mask[None], ratio,
                       policy, vocab, rng, weights_by_category)
