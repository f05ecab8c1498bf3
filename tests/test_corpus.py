import logging

import numpy as np
import pytest

from tvmask.corpus import packing, reader
from tvmask.corpus.packing import pack_to_arrays
from tvmask.corpus.reader import CorpusFormatError, TaggedCorpus, load_tagged_corpus
from tvmask.corpus.synth import write_corpus
from tvmask.corpus.tokenizer import tokenize_word
from tvmask.corpus.vocab import RESERVED_TOKENS, Vocabulary, build_vocab
from tvmask.postags import UPOS_TAGS, pos_id

from conftest import synth_corpus, synth_sentences
from packing_reference import read_sentences, reference_pack
from vocab_reference import ranked_groups


def write(tmp_path, text, name="corpus.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def records(corpus):
    """(form, category_id) of every token, in corpus order."""
    return [(corpus.forms[f], int(c)) for f, c in zip(corpus.form_ids, corpus.categories)]


# ------------------------------------------------------------ reader

def test_reader_basic(tmp_path):
    path = write(tmp_path, "apple\tNOUN\nfalls\tVERB\n\nit\tPRON\n.\tPUNCT\n")
    corpus = load_tagged_corpus(path)
    assert records(corpus) == [("apple", pos_id("NOUN")), ("falls", pos_id("VERB")),
                               ("it", pos_id("PRON")), (".", pos_id("PUNCT"))]
    assert corpus.n_sentences == 2
    assert corpus.form_ids.dtype == np.int32 and corpus.categories.dtype == np.int8


def test_reader_space_separated(tmp_path):
    path = write(tmp_path, "apple NOUN\n\n")
    assert records(load_tagged_corpus(path)) == [("apple", pos_id("NOUN"))]


def test_reader_unknown_tag_maps_to_x(tmp_path, caplog):
    path = write(tmp_path, "blorp\tFOO\n\n")
    with caplog.at_level(logging.WARNING):
        corpus = load_tagged_corpus(path)
    assert records(corpus) == [("blorp", pos_id("X"))]
    assert any("FOO" in rec.getMessage() for rec in caplog.records)


def test_reader_skips_empty_sentence_blocks(tmp_path):
    path = write(tmp_path, "\n\na\tDET\n\n\n\nb\tNOUN\n")
    assert load_tagged_corpus(path).n_sentences == 2


def test_reader_malformed_line_reports_lineno(tmp_path):
    path = write(tmp_path, "ok\tNOUN\nbroken_line_without_tag\n")
    with pytest.raises(CorpusFormatError, match=":2:"):
        load_tagged_corpus(path)


def test_reader_ignores_leading_byte_order_mark(tmp_path, caplog):
    # Windows editors may start a UTF-8 file with a byte-order mark
    for text in ("the\tDET\ncat\tNOUN\n", "# doc 1\nthe\tDET\ncat\tNOUN\n"):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            corpus = load_tagged_corpus(path)
        assert records(corpus) == [("the", pos_id("DET")), ("cat", pos_id("NOUN"))], text
        assert corpus.n_sentences == 1, text
        assert not caplog.records, text


def test_reader_parses_repeated_lines_once(tmp_path, caplog):
    text = "blorp\tFOO\nthe\tDET\n\n# blorp\tFOO\nthe\tDET\nblorp\tFOO\n\nzap\tFOO\r\nthe\tDET\n"
    path = write(tmp_path, text)
    with caplog.at_level(logging.WARNING):
        corpus = load_tagged_corpus(path)
    x, det = pos_id("X"), pos_id("DET")
    assert records(corpus) == [("blorp", x), ("the", det), ("the", det), ("blorp", x),
                               ("zap", x), ("the", det)]
    assert corpus.n_sentences == 3
    assert corpus.forms == ["blorp", "the", "zap"]  # repeats share their form id
    assert corpus.form_ids.tolist() == [0, 1, 1, 0, 2, 1]
    warnings = [rec.getMessage() for rec in caplog.records]
    assert len(warnings) == 1 and ":1:" in warnings[0] and "FOO" in warnings[0]


def test_reader_repeated_malformed_line_fails_at_first(tmp_path):
    path = write(tmp_path, "ok\tNOUN\n\nno_tag_here\nok\tNOUN\nno_tag_here\n")
    with pytest.raises(CorpusFormatError, match=":3:"):
        load_tagged_corpus(path)


def test_reader_hash_form_is_a_record(tmp_path):
    # "#", one tab and a tag is the token "#"; any other line starting with "#" is a comment
    text = "# doc 1\n#\tSYM\n# blorp\tFOO\n#\tfoo\tbar\n#x\tSYM\n#\tSYM\r\na\tDET\n"
    corpus = load_tagged_corpus(write(tmp_path, text))
    assert records(corpus) == [("#", pos_id("SYM"))] * 2 + [("a", pos_id("DET"))]
    assert corpus.n_sentences == 1


def test_reader_reads_back_every_synth_token(tmp_path):
    # the synthetic SYM inventory includes "#", written as "#\tSYM"
    path = tmp_path / "synth.txt"
    n = write_corpus(path, 60_000, 1)
    corpus = load_tagged_corpus(path)
    assert "#" in corpus.forms
    assert len(corpus.form_ids) == n


def test_reader_empty_file_errors(tmp_path):
    for text in ("\n\n", "# only a comment\n\n  \n"):
        with pytest.raises(CorpusFormatError, match="no sentences"):
            load_tagged_corpus(write(tmp_path, text))


def test_reader_missing_file():
    with pytest.raises(FileNotFoundError):
        load_tagged_corpus("/nonexistent/corpus.txt")


def test_reader_malformed_line_after_first_block_reports_its_lineno(tmp_path):
    lines = ["w%d\tNOUN" % (i % 5000) if i % 40 else "" for i in range(150_000)]
    lines.insert(140_000, "broken_line_without_tag")
    assert len("\n".join(lines[:140_000])) > reader.READ_BLOCK_CHARS  # past the first block
    path = write(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match=":140001:"):
        load_tagged_corpus(path)


def random_corpus_text(rng):
    """A tagged corpus file's text with the awkward cases the reader must handle:
    comments, lines starting with '#' that are records, whitespace-only and
    repeated blank lines, unknown tags, one form under several tags, words
    too long for one row, CRLF endings, a byte-order mark and no final newline."""
    forms = ["a", "b", "ab", "ba", "#", "bab", "z", "a" * 40, "ab" * 9, "[PAD]"]
    tags = ["NOUN", "VERB", "DET", "SYM", "PUNCT", "FOO", "x"]
    lines = []
    for _ in range(int(rng.integers(1, 60))):
        kind = rng.random()
        if kind < 0.6:
            sep = "\t" if rng.random() < 0.9 else " "
            lines.append(f"{rng.choice(forms)}{sep}{rng.choice(tags)}")
        elif kind < 0.75:
            lines.append("")
        elif kind < 0.85:
            lines.append(str(rng.choice([" ", "\t", " \t "])))
        else:
            lines.append(str(rng.choice(["# doc", "# blorp\tFOO", "#\tNOUN\tx", "#", "##\tSYM"])))
    if not any(line and not line.startswith("# ") and line.strip() for line in lines):
        lines.append("a\tNOUN")
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    text = newline.join(lines) + (newline if rng.random() < 0.7 else "")
    return ("\ufeff" if rng.random() < 0.2 else "") + text


def test_columnar_pipeline_matches_references(tmp_path, monkeypatch):
    # reader, vocabulary and packer against the sentence-based references, with
    # blocks of a few lines so most files span many read blocks
    rng = np.random.default_rng(1500)
    path = tmp_path / "corpus.txt"
    checked = 0
    for case in range(300):
        monkeypatch.setattr(reader, "READ_BLOCK_CHARS", int(rng.choice([1, 7, 40, 1 << 20])))
        path.write_text(random_corpus_text(rng), encoding="utf-8")
        sentences = read_sentences(path)
        if not sentences:
            with pytest.raises(CorpusFormatError, match="no sentences"):
                load_tagged_corpus(path)
            continue
        corpus = load_tagged_corpus(path)
        assert records(corpus) == [r for s in sentences for r in s], case
        assert corpus.n_sentences == len(sentences), case
        initial, cont, rest = ranked_groups(sentences)
        want = list(RESERVED_TOKENS) + initial + cont + rest
        for vocab_size in (len(RESERVED_TOKENS) + 3, 12, len(want)):
            vocab = build_vocab(corpus, vocab_size)
            assert vocab.tokens == want[:vocab_size], (case, vocab_size)
            for L_seq in (8, 11, 32):
                got = pack_to_arrays(corpus, L_seq, vocab)
                for name, x, y in zip(("tokens", "pos_ids", "special"), got,
                                      reference_pack(sentences, L_seq, vocab)):
                    assert x.dtype == y.dtype and x.shape == y.shape, (case, name)
                    np.testing.assert_array_equal(x, y, err_msg=f"{case} {name}")
        checked += 1
    assert checked > 250


def test_reader_matches_reference_on_malformed_lines(tmp_path, monkeypatch):
    rng = np.random.default_rng(77)
    path = tmp_path / "corpus.txt"
    for case in range(100):
        monkeypatch.setattr(reader, "READ_BLOCK_CHARS", int(rng.choice([1, 13, 1 << 20])))
        lines = random_corpus_text(rng).lstrip("\ufeff").replace("\r\n", "\n").split("\n")
        at = int(rng.integers(0, len(lines) + 1))
        lines.insert(at, str(rng.choice(["no_tag_here", "a\tb\tc", "\tNOUN", "x\t"])))
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(CorpusFormatError) as want:
            read_sentences(path)
        with pytest.raises(CorpusFormatError) as got:
            load_tagged_corpus(path)
        lineno = str(want.value).split(":")[1]
        assert f":{lineno}:" in str(got.value), (case, str(got.value), str(want.value))


def test_from_sentences_columns():
    corpus = TaggedCorpus.from_sentences([[("a", 3), ("b", 1)], [], [("a", 2)]])
    assert corpus.forms == ["a", "b"]
    assert corpus.form_ids.tolist() == [0, 1, 0] and corpus.form_ids.dtype == np.int32
    assert corpus.categories.tolist() == [3, 1, 2] and corpus.categories.dtype == np.int8
    assert corpus.n_sentences == 2


# ------------------------------------------------------------ vocabulary

def test_build_vocab_tiny_corpus_keeps_whole_words():
    sentences = [[("a", 0), ("a", 0), ("b", 0)]]
    vocab = build_vocab(TaggedCorpus.from_sentences(sentences), 7)
    assert vocab.size == 7
    assert vocab.tokens[:5] == list(RESERVED_TOKENS)
    assert set(vocab.tokens[5:]) == {"a", "b"}
    # higher count first: "a" (2) before "b" (1)
    assert vocab.tokens[5] == "a"


def test_build_vocab_deterministic():
    corpus = synth_corpus(2000, 5)
    v1 = build_vocab(corpus, 300)
    v2 = build_vocab(corpus, 300)
    assert v1.tokens == v2.tokens


def test_build_vocab_size_validation():
    with pytest.raises(ValueError):
        build_vocab(TaggedCorpus.from_sentences([[("a", 0)]]), 4)


def test_build_vocab_matches_full_sort_reference():
    # cuts inside the initial singles, the continuation singles and the rest,
    # and above the total piece count
    rng = np.random.default_rng(1080)
    for seed in range(6):
        sentences = synth_sentences(int(rng.integers(200, 2000)), seed)
        sentences.append([("[PAD]", 0), ("[MASK]", 0)])
        initial, cont, rest = ranked_groups(sentences)
        want = list(RESERVED_TOKENS) + initial + cont + rest
        n = len(RESERVED_TOKENS)
        assert 0 < len(initial) // 2 and 0 < len(cont) // 2, seed
        sizes = {n, n + len(initial) // 2, n + len(initial), n + len(initial) + len(cont) // 2,
                 n + len(initial) + len(cont), n + len(initial) + len(cont) + 1,
                 n + len(initial) + len(cont) + len(rest) // 2, len(want), len(want) + 100}
        sizes |= {int(k) for k in rng.integers(n, len(want), size=4)}
        corpus = TaggedCorpus.from_sentences(sentences)
        for vocab_size in sorted(sizes):
            assert build_vocab(corpus, vocab_size).tokens == want[:vocab_size], (seed, vocab_size)


def test_vocab_save_load_roundtrip(tmp_path):
    sentences = [[("hello", 0), ("world", 1)]]
    vocab = build_vocab(TaggedCorpus.from_sentences(sentences), 40)
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
    tokens, pos, special = pack_to_arrays(TaggedCorpus.from_sentences([sentence]), 8, vocab)
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
    vocab = build_vocab(TaggedCorpus.from_sentences(sentences), 16)
    tokens, _pos, special = pack_to_arrays(TaggedCorpus.from_sentences(sentences), 8, vocab)
    assert tokens.shape == (1, 8)
    assert tokens[0, 0] == vocab.cls_id
    assert tokens[0, 6] == vocab.sep_id
    assert tokens[0, 7] == vocab.pad_id
    assert special[0].sum() == 3  # CLS, SEP, PAD
    assert list(special[0]) == [True] + [False] * 5 + [True, True]


def test_pack_round_trip_and_tag_conservation():
    sentences = synth_sentences(3000, 9)
    vocab = build_vocab(TaggedCorpus.from_sentences(sentences), 512)
    tokens, pos, special = pack_to_arrays(TaggedCorpus.from_sentences(sentences), 32, vocab)
    # round-trip: non-special pieces in order reconstruct the tokenized corpus
    flat_tokens = tokens[~special]
    flat_pos = pos[~special]
    words = [(tokenize_word(f, vocab), t) for s in sentences for f, t in s]
    expected_tokens = np.concatenate([ids for ids, _ in words])
    expected_pos = np.concatenate([[t] * len(ids) for ids, t in words])
    np.testing.assert_array_equal(flat_tokens, expected_tokens)
    np.testing.assert_array_equal(flat_pos, expected_pos)


def test_pack_deterministic():
    corpus = synth_corpus(1500, 2)
    vocab = build_vocab(corpus, 256)
    a = pack_to_arrays(corpus, 24, vocab)
    b = pack_to_arrays(corpus, 24, vocab)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_pack_words_not_split_unless_oversized():
    # two 4-piece words in a capacity-6 buffer: second word moves whole
    vocab = Vocabulary(list(RESERVED_TOKENS) + ["ab", "##a", "##b", "##c"])
    sentences = [[("abaabab", 0), ("abaabab", 1)]]  # ab ##a ##a ##b ##a ##b? depends
    wl = [len(tokenize_word(f, vocab)) for f, _ in sentences[0]]
    assert wl[0] == wl[1] >= 2
    tokens, _pos, special = pack_to_arrays(TaggedCorpus.from_sentences(sentences), 8, vocab)
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
    corpus = TaggedCorpus.from_sentences([[(long_word, 0)]])
    tokens, _pos, special = pack_to_arrays(corpus, 8, vocab)
    assert int((~special).sum()) == 20
    assert tokens.shape[0] == 4  # ceil(20 / 6)


def test_pack_min_length():
    vocab = Vocabulary(list(RESERVED_TOKENS) + ["a"])
    with pytest.raises(ValueError):
        pack_to_arrays(TaggedCorpus.from_sentences([]), 4, vocab)


def assert_packs_like_reference(sentences, L_seq, vocab):
    got = pack_to_arrays(TaggedCorpus.from_sentences(sentences), L_seq, vocab)
    want = reference_pack(sentences, L_seq, vocab)
    for name, x, y in zip(("tokens", "pos_ids", "special"), got, want):
        assert x.dtype == y.dtype and x.shape == y.shape, (name, x.dtype, x.shape, y.dtype, y.shape)
        np.testing.assert_array_equal(x, y, err_msg=name)


def test_pack_matches_reference_on_synth_corpora():
    # 24 corpora x 4 vocabulary sizes x 5 sequence lengths = 480 cases
    rng = np.random.default_rng(2208)
    for seed in range(24):
        sentences = synth_sentences(int(rng.integers(20, 400)), seed)
        for vocab_size in (16, 64, 256, 1024):
            vocab = build_vocab(TaggedCorpus.from_sentences(sentences), vocab_size)
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
    sentences = synth_sentences(4000, 11)
    vocab = build_vocab(TaggedCorpus.from_sentences(sentences), 256)
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
        with pytest.raises(ValueError, match=message):
            pack_to_arrays(TaggedCorpus.from_sentences(sentences), L_seq, vocab)
        with pytest.raises(ValueError, match=message):
            reference_pack(sentences, L_seq, vocab)


# ------------------------------------------------------------ synthetic corpus

def test_synth_deterministic_and_tagged(tmp_path):
    p1 = tmp_path / "c1.txt"
    p2 = tmp_path / "c2.txt"
    n1 = write_corpus(p1, 5000, 123)
    n2 = write_corpus(p2, 5000, 123)
    assert n1 == n2 >= 5000
    assert p1.read_bytes() == p2.read_bytes()
    assert set(load_tagged_corpus(p1).categories.tolist()) <= set(range(len(UPOS_TAGS)))


def test_synth_covers_all_categories(tmp_path):
    path = tmp_path / "c.txt"
    write_corpus(path, 60000, 1)
    seen = np.bincount(load_tagged_corpus(path).categories, minlength=len(UPOS_TAGS)) > 0
    assert seen.all(), [UPOS_TAGS[i] for i in np.nonzero(~seen)[0]]
