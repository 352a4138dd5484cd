"""Text-processing substrate: tokenization, stop words, stemming.

This package gives every retrieval system in the reproduction an
identical view of the term space — the paper's "standard" preprocessing
(Lucene stop-word list + stemming) is implemented once here and shared.
"""

from .analyzer import DEFAULT_ANALYZER, Analyzer
from .stemmer import PorterStemmer, stem
from .stopwords import LUCENE_STOP_WORDS
from .tokenizer import DEFAULT_TOKENIZER, Tokenizer

__all__ = [
    "Analyzer",
    "DEFAULT_ANALYZER",
    "DEFAULT_TOKENIZER",
    "LUCENE_STOP_WORDS",
    "PorterStemmer",
    "Tokenizer",
    "stem",
]
