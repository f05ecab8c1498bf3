from tvmask.corpus.packing import load_packed
from tvmask.corpus.vocab import Vocabulary

__all__ = ["Vocabulary", "load_packed"]
