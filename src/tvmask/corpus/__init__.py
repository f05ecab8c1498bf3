from tvmask.corpus.packing import load_packed, pack_to_arrays, save_packed
from tvmask.corpus.reader import CorpusFormatError, load_tagged_corpus
from tvmask.corpus.tokenizer import tokenize_word
from tvmask.corpus.vocab import RESERVED_TOKENS, Vocabulary, build_vocab

__all__ = [
    "CorpusFormatError",
    "load_tagged_corpus",
    "RESERVED_TOKENS",
    "Vocabulary",
    "build_vocab",
    "tokenize_word",
    "pack_to_arrays",
    "save_packed",
    "load_packed",
]
