"""Tokenization for document and query text.

A deliberately simple, deterministic tokenizer in the spirit of Lucene's
``StandardAnalyzer`` as the paper would have used it: split on
non-alphanumeric characters, lower-case, and drop pure numbers and
too-short tokens.  All knobs are explicit constructor arguments.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Optional

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")


class Tokenizer:
    """Split raw text into lower-cased word tokens.

    Parameters
    ----------
    min_length:
        Tokens shorter than this are dropped (default 2 — single letters
        carry no retrieval signal and inflate the term space).
    max_length:
        Tokens longer than this are dropped (default 40, guards against
        base64 blobs and URLs masquerading as terms).
    keep_numbers:
        When ``False`` (the default) purely numeric tokens are dropped;
        mixed alphanumerics like ``mp3`` are always kept.
    """

    def __init__(
        self,
        min_length: int = 2,
        max_length: int = 40,
        keep_numbers: bool = False,
    ) -> None:
        if min_length < 1:
            raise ValueError("min_length must be >= 1")
        if max_length < min_length:
            raise ValueError("max_length must be >= min_length")
        self.min_length = min_length
        self.max_length = max_length
        self.keep_numbers = keep_numbers

    def raw_tokens(self, text: str) -> List[str]:
        """The maximal ``[A-Za-z0-9]+`` runs of *text*, case untouched.

        First half of tokenization.  The regex sees the text as given:
        lower-casing first would invent tokens (``"\u212a".lower()`` is
        ASCII ``k``; ``"\u0130".lower()`` grows a combining mark).
        """
        return _TOKEN_RE.findall(text)

    def accept(self, raw: str) -> Optional[str]:
        """The token a raw run stands for — lower-cased — or ``None``
        when the length bounds or the digit rule drop it.  Second half
        of tokenization, a pure function of *raw* and the settings."""
        token = raw.lower()
        if not self.min_length <= len(token) <= self.max_length:
            return None
        if not self.keep_numbers and token.isdigit():
            return None
        return token

    def iter_tokens(self, text: str) -> Iterator[str]:
        """Yield tokens from *text* one at a time."""
        for raw in self.raw_tokens(text):
            token = self.accept(raw)
            if token is not None:
                yield token

    def tokenize(self, text: str) -> List[str]:
        """Return the full token list for *text*.

        >>> Tokenizer().tokenize("Peer-to-Peer Text Retrieval!")
        ['peer', 'to', 'peer', 'text', 'retrieval']
        """
        return list(self.iter_tokens(text))


#: A shared default tokenizer used across the package.
DEFAULT_TOKENIZER = Tokenizer()


def tokenize(text: str) -> List[str]:
    """Tokenize with the package default settings."""
    return DEFAULT_TOKENIZER.tokenize(text)
