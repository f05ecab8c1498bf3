import logging

import numpy as np
import pytest

from tvmask.corpus import packing
from tvmask.corpus.packing import pack_to_arrays
from tvmask.corpus.reader import CorpusFormatError, load_tagged_corpus
from tvmask.corpus.synth import generate_sentences, write_corpus
from tvmask.corpus.tokenizer import tokenize_word
from tvmask.corpus.vocab import RESERVED_TOKENS, Vocabulary, build_vocab
from tvmask.postags import UPOS_TAGS, pos_id

from packing_reference import reference_pack
from vocab_reference import ranked_groups


def write(tmp_path, text, name="corpus.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ------------------------------------------------------------ reader

def test_reader_basic(tmp_path):
    path = write(tmp_path, "apple\tNOUN\nfalls\tVERB\n\nit\tPRON\n.\tPUNCT\n")
    sents = list(load_tagged_corpus(path))
    assert sents == [
        [("apple", pos_id("NOUN")), ("falls", pos_id("VERB"))],
        [("it", pos_id("PRON")), (".", pos_id("PUNCT"))],
    ]


def test_reader_space_separated(tmp_path):
    path = write(tmp_path, "apple NOUN\n\n")
    assert list(load_tagged_corpus(path)) == [[("apple", pos_id("NOUN"))]]


def test_reader_unknown_tag_maps_to_x(tmp_path, caplog):
    path = write(tmp_path, "blorp\tFOO\n\n")
    with caplog.at_level(logging.WARNING):
        sents = list(load_tagged_corpus(path))
    assert sents == [[("blorp", pos_id("X"))]]
    assert any("FOO" in rec.getMessage() for rec in caplog.records)


def test_reader_skips_empty_sentence_blocks(tmp_path):
    path = write(tmp_path, "\n\na\tDET\n\n\n\nb\tNOUN\n")
    sents = list(load_tagged_corpus(path))
    assert len(sents) == 2


def test_reader_malformed_line_reports_lineno(tmp_path):
    path = write(tmp_path, "ok\tNOUN\nbroken_line_without_tag\n")
    with pytest.raises(CorpusFormatError, match=":2:"):
        list(load_tagged_corpus(path))


def test_reader_ignores_leading_byte_order_mark(tmp_path, caplog):
    # Windows editors may start a UTF-8 file with a byte-order mark
    for text in ("the\tDET\ncat\tNOUN\n", "# doc 1\nthe\tDET\ncat\tNOUN\n"):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            sents = list(load_tagged_corpus(path))
        assert sents == [[("the", pos_id("DET")), ("cat", pos_id("NOUN"))]], text
        assert not caplog.records, text


def test_reader_parses_repeated_lines_once(tmp_path, caplog):
    text = "blorp\tFOO\nthe\tDET\n\n# blorp\tFOO\nthe\tDET\nblorp\tFOO\n\nzap\tFOO\r\nthe\tDET\n"
    path = write(tmp_path, text)
    with caplog.at_level(logging.WARNING):
        sents = list(load_tagged_corpus(path))
    x, det = pos_id("X"), pos_id("DET")
    assert sents == [[("blorp", x), ("the", det)], [("the", det), ("blorp", x)],
                     [("zap", x), ("the", det)]]
    assert sents[1][0] is sents[0][1] and sents[1][1] is sents[0][0]  # records are shared
    warnings = [rec.getMessage() for rec in caplog.records]
    assert len(warnings) == 1 and ":1:" in warnings[0] and "FOO" in warnings[0]


def test_reader_repeated_malformed_line_fails_at_first(tmp_path):
    path = write(tmp_path, "ok\tNOUN\n\nno_tag_here\nok\tNOUN\nno_tag_here\n")
    with pytest.raises(CorpusFormatError, match=":3:"):
        list(load_tagged_corpus(path))


def test_reader_empty_file_errors(tmp_path):
    path = write(tmp_path, "\n\n")
    with pytest.raises(CorpusFormatError, match="no sentences"):
        list(load_tagged_corpus(path))


def test_reader_missing_file():
    with pytest.raises(FileNotFoundError):
        list(load_tagged_corpus("/nonexistent/corpus.txt"))


# ------------------------------------------------------------ vocabulary

def test_build_vocab_tiny_corpus_keeps_whole_words():
    sentences = [[("a", 0), ("a", 0), ("b", 0)]]
    vocab = build_vocab(iter(sentences), 7)
    assert vocab.size == 7
    assert vocab.tokens[:5] == list(RESERVED_TOKENS)
    assert set(vocab.tokens[5:]) == {"a", "b"}
    # higher count first: "a" (2) before "b" (1)
    assert vocab.tokens[5] == "a"


def test_build_vocab_deterministic():
    sentences = [s for s in generate_sentences(2000, 5)]
    mapped = [[(f, pos_id(t)) for f, t in s] for s in sentences]
    v1 = build_vocab(iter(mapped), 300)
    v2 = build_vocab(iter(mapped), 300)
    assert v1.tokens == v2.tokens


def test_build_vocab_size_validation():
    with pytest.raises(ValueError):
        build_vocab(iter([[("a", 0)]]), 4)


def test_build_vocab_matches_full_sort_reference():
    # cuts inside the initial singles, the continuation singles and the rest,
    # and above the total piece count
    rng = np.random.default_rng(1080)
    for seed in range(6):
        sentences = [[(f, pos_id(t)) for f, t in s]
                     for s in generate_sentences(int(rng.integers(200, 2000)), seed)]
        sentences.append([("[PAD]", 0), ("[MASK]", 0)])
        initial, cont, rest = ranked_groups(sentences)
        want = list(RESERVED_TOKENS) + initial + cont + rest
        n = len(RESERVED_TOKENS)
        assert 0 < len(initial) // 2 and 0 < len(cont) // 2, seed
        sizes = {n, n + len(initial) // 2, n + len(initial), n + len(initial) + len(cont) // 2,
                 n + len(initial) + len(cont), n + len(initial) + len(cont) + 1,
                 n + len(initial) + len(cont) + len(rest) // 2, len(want), len(want) + 100}
        sizes |= {int(k) for k in rng.integers(n, len(want), size=4)}
        for vocab_size in sorted(sizes):
            assert build_vocab(iter(sentences), vocab_size).tokens == want[:vocab_size], \
                (seed, vocab_size)


def test_vocab_save_load_roundtrip(tmp_path):
    sentences = [[("hello", 0), ("world", 1)]]
    vocab = build_vocab(iter(sentences), 40)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.tokens == vocab.tokens
    assert loaded.content_hash() == vocab.content_hash()
    # line number = id, reserved first
    lines = path.read_text().splitlines()
    assert lines[:5] == list(RESERVED_TOKENS)


def test_vocab_rejects_bad_reserved_order():
    with pytest.raises(ValueError):
        Vocabulary(["[PAD]", "[CLS]", "[UNK]", "[SEP]", "[MASK]", "a"])


# ------------------------------------------------------------ tokenizer

@pytest.fixture
def small_vocab():
    return Vocabulary(list(RESERVED_TOKENS) + ["keep", "##s", "doctor", "an", "##d"])


def pack_body(sentence, vocab):
    """Piece ids and category ids of one packed sentence, specials dropped."""
    tokens, pos, special = pack_to_arrays([sentence], 8, vocab)
    return tokens[~special], pos[~special]


def test_tokenize_continuation_inherits_tag(small_vocab):
    token_ids, pos_ids = pack_body([("keeps", pos_id("VERB"))], small_vocab)
    keep = small_vocab.token_to_id["keep"]
    s = small_vocab.token_to_id["##s"]
    np.testing.assert_array_equal(token_ids, [keep, s])
    assert list(pos_ids) == [pos_id("VERB")] * 2


def test_tokenize_whole_word(small_vocab):
    token_ids, pos_ids = pack_body([("doctor", pos_id("NOUN"))], small_vocab)
    np.testing.assert_array_equal(token_ids, [small_vocab.token_to_id["doctor"]])
    assert list(pos_ids) == [pos_id("NOUN")]


def test_tokenize_oov_is_unk_with_tag(small_vocab):
    token_ids, pos_ids = pack_body([("zzz", pos_id("ADJ"))], small_vocab)
    np.testing.assert_array_equal(token_ids, [small_vocab.unk_id])
    assert list(pos_ids) == [pos_id("ADJ")]


def test_tokenize_greedy_longest_match(small_vocab):
    # "and" -> "an" + "##d" (longest prefix first)
    assert tokenize_word("and", small_vocab) == [
        small_vocab.token_to_id["an"], small_vocab.token_to_id["##d"]
    ]


# ------------------------------------------------------------ packing

def test_pack_layout_single_sentence():
    sentences = [[(w, 0) for w in ("v", "w", "x", "y", "z")]]
    vocab = build_vocab(iter(sentences), 16)
    tokens, _pos, special = pack_to_arrays(sentences, 8, vocab)
    assert tokens.shape == (1, 8)
    assert tokens[0, 0] == vocab.cls_id
    assert tokens[0, 6] == vocab.sep_id
    assert tokens[0, 7] == vocab.pad_id
    assert special[0].sum() == 3  # CLS, SEP, PAD
    assert list(special[0]) == [True] + [False] * 5 + [True, True]


def test_pack_round_trip_and_tag_conservation():
    sentences = [[(f, pos_id(t)) for f, t in s] for s in generate_sentences(3000, 9)]
    vocab = build_vocab(iter(sentences), 512)
    tokens, pos, special = pack_to_arrays(iter(sentences), 32, vocab)
    # round-trip: non-special pieces in order reconstruct the tokenized corpus
    flat_tokens = tokens[~special]
    flat_pos = pos[~special]
    words = [(tokenize_word(f, vocab), t) for s in sentences for f, t in s]
    expected_tokens = np.concatenate([ids for ids, _ in words])
    expected_pos = np.concatenate([[t] * len(ids) for ids, t in words])
    np.testing.assert_array_equal(flat_tokens, expected_tokens)
    np.testing.assert_array_equal(flat_pos, expected_pos)


def test_pack_deterministic():
    sentences = [[(f, pos_id(t)) for f, t in s] for s in generate_sentences(1500, 2)]
    vocab = build_vocab(iter(sentences), 256)
    a = pack_to_arrays(iter(sentences), 24, vocab)
    b = pack_to_arrays(iter(sentences), 24, vocab)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_pack_words_not_split_unless_oversized():
    # two 4-piece words in a capacity-6 buffer: second word moves whole
    vocab = Vocabulary(list(RESERVED_TOKENS) + ["ab", "##a", "##b", "##c"])
    sentences = [[("abaabab", 0), ("abaabab", 1)]]  # ab ##a ##a ##b ##a ##b? depends
    wl = [len(tokenize_word(f, vocab)) for f, _ in sentences[0]]
    assert wl[0] == wl[1] >= 2
    tokens, _pos, special = pack_to_arrays(sentences, 8, vocab)
    # each sequence's non-special span must hold whole words only
    word_of_piece = np.repeat(np.arange(len(wl)), wl)
    offset = 0
    for row, row_special in zip(tokens, special):
        body = row[~row_special]
        words_here = word_of_piece[offset : offset + len(body)]
        offset += len(body)
        for w in np.unique(words_here):
            assert np.count_nonzero(word_of_piece == w) == np.count_nonzero(words_here == w)


def test_pack_oversized_word_splits():
    vocab = Vocabulary(list(RESERVED_TOKENS) + ["a", "##a"])
    long_word = "a" * 20  # 20 pieces > capacity 6
    tokens, _pos, special = pack_to_arrays([[(long_word, 0)]], 8, vocab)
    assert int((~special).sum()) == 20
    assert tokens.shape[0] == 4  # ceil(20 / 6)


def test_pack_min_length():
    vocab = Vocabulary(list(RESERVED_TOKENS) + ["a"])
    with pytest.raises(ValueError):
        pack_to_arrays(iter([]), 4, vocab)


def assert_packs_like_reference(sentences, L_seq, vocab):
    got = pack_to_arrays(iter(sentences), L_seq, vocab)
    want = reference_pack(sentences, L_seq, vocab)
    for name, x, y in zip(("tokens", "pos_ids", "special"), got, want):
        assert x.dtype == y.dtype and x.shape == y.shape, (name, x.dtype, x.shape, y.dtype, y.shape)
        np.testing.assert_array_equal(x, y, err_msg=name)


def test_pack_matches_reference_on_synth_corpora():
    # 24 corpora x 4 vocabulary sizes x 5 sequence lengths = 480 cases
    rng = np.random.default_rng(2208)
    for seed in range(24):
        sentences = [[(f, pos_id(t)) for f, t in s]
                     for s in generate_sentences(int(rng.integers(20, 400)), seed)]
        for vocab_size in (16, 64, 256, 1024):
            vocab = build_vocab(iter(sentences), vocab_size)
            for L_seq in (8, 9, 12, 16, 32):
                start = int(rng.integers(0, len(sentences)))
                assert_packs_like_reference(sentences[start:], L_seq, vocab)


def test_pack_matches_reference_on_oversized_words():
    # a word of n letters is at most n pieces; a word with a "z" is one [UNK]
    vocab = Vocabulary(list(RESERVED_TOKENS) + ["a", "b", "ab", "##a", "##b", "##ba"])
    rng = np.random.default_rng(10806)
    for _ in range(600):
        sentences = [
            [("".join(rng.choice(list("abz"), size=int(rng.integers(1, 31)), p=[0.495, 0.495, 0.01])),
              int(rng.integers(0, len(UPOS_TAGS))))
             for _ in range(int(rng.integers(0, 6)))]
            for _ in range(int(rng.integers(1, 8)))
        ]
        if not any(sentences):
            sentences[0].append(("a", 0))
        assert_packs_like_reference(sentences, int(rng.integers(8, 17)), vocab)


def test_pack_tokenizes_each_form_once(monkeypatch):
    sentences = [[(f, pos_id(t)) for f, t in s] for s in generate_sentences(4000, 11)]
    vocab = build_vocab(iter(sentences), 256)
    calls = {}

    def counting_tokenize_word(form, vocab):
        calls[form] = calls.get(form, 0) + 1
        return tokenize_word(form, vocab)

    monkeypatch.setattr(packing, "tokenize_word", counting_tokenize_word)
    assert_packs_like_reference(sentences, 16, vocab)
    assert calls.keys() == {f for s in sentences for f, _ in s}
    assert set(calls.values()) == {1}


def test_pack_errors_match_reference():
    vocab = Vocabulary(list(RESERVED_TOKENS) + ["a"])
    for sentences, L_seq, message in (([], 16, "corpus empty"), ([[], []], 8, "corpus empty"),
                                      ([[("a", 0)]], 7, "L_seq must be >= 8"),
                                      ([], 4, "L_seq must be >= 8")):
        for pack in (pack_to_arrays, reference_pack):
            with pytest.raises(ValueError, match=message):
                pack(iter(sentences), L_seq, vocab)


# ------------------------------------------------------------ synthetic corpus

def test_synth_deterministic_and_tagged(tmp_path):
    p1 = tmp_path / "c1.txt"
    p2 = tmp_path / "c2.txt"
    n1 = write_corpus(p1, 5000, 123)
    n2 = write_corpus(p2, 5000, 123)
    assert n1 == n2 >= 5000
    assert p1.read_bytes() == p2.read_bytes()
    tags = {t for s in load_tagged_corpus(p1) for _, t in s}
    assert tags <= set(range(len(UPOS_TAGS)))


def test_synth_covers_all_categories(tmp_path):
    path = tmp_path / "c.txt"
    write_corpus(path, 60000, 1)
    seen = np.zeros(len(UPOS_TAGS), dtype=bool)
    for sent in load_tagged_corpus(path):
        for _, t in sent:
            seen[t] = True
    assert seen.all(), [UPOS_TAGS[i] for i in np.nonzero(~seen)[0]]
