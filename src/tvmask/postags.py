"""Universal POS tag inventory and reporting groups.

Category ids are fixed by position in UPOS_TAGS: non-function words first,
function words second, punctuation/symbols/other last, so each reporting
group is a contiguous id range.
"""

from __future__ import annotations

UPOS_TAGS = (
    # non-function (content) words
    "NOUN", "VERB", "ADJ", "ADV", "PROPN", "NUM", "INTJ",
    # function words
    "PRON", "DET", "ADP", "AUX", "CCONJ", "SCONJ", "PART",
    # everything else
    "PUNCT", "SYM", "X",
)

N_CATEGORIES = len(UPOS_TAGS)  # 17

NON_FUNCTION_IDS = tuple(range(0, 7))
FUNCTION_IDS = tuple(range(7, 14))
OTHER_IDS = tuple(range(14, 17))

GROUPS = {
    "non_function": NON_FUNCTION_IDS,
    "function": FUNCTION_IDS,
    "other": OTHER_IDS,
}

_TAG_TO_ID = {tag: i for i, tag in enumerate(UPOS_TAGS)}

X_ID = _TAG_TO_ID["X"]


def pos_id(tag: str) -> int:
    """Map a tag name to its category id; unknown tags map to X."""
    return _TAG_TO_ID.get(tag, X_ID)


def is_known_tag(tag: str) -> bool:
    return tag in _TAG_TO_ID
