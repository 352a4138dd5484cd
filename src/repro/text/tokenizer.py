"""Tokenization for document and query text.

A deliberately simple, deterministic tokenizer in the spirit of Lucene's
``StandardAnalyzer`` as the paper would have used it: split on
non-alphanumeric characters, lower-case, and drop pure numbers and
too-short tokens.  All knobs are explicit constructor arguments.

A token is a maximal run of ``[A-Za-z0-9]``, found at the byte level:
the text is encoded to ASCII with every other code point replaced by
``?``, one :meth:`bytes.translate` turns every byte outside the class
into a space, and :meth:`bytes.split` cuts the runs.  The class is
ASCII-only, so every non-ASCII code point is a separator either way —
the Kelvin sign, a dotted capital I, a ligature or a lone surrogate
alike.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

_ALNUM = b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

#: 256 bytes: each of ``[A-Za-z0-9]`` maps to itself, every other byte
#: to a space — the one tokenizing rule.
_RUN_TABLE = bytes(b if b in _ALNUM else 0x20 for b in range(256))


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

    @staticmethod
    def runs(text: str) -> List[bytes]:
        """The maximal ``[A-Za-z0-9]+`` runs of *text* as ASCII bytes,
        case untouched.

        First half of tokenization.  The runs are cut from the text as
        given: lower-casing first would invent tokens (``"\u212a".lower()``
        is ASCII ``k``; ``"\u0130".lower()`` grows a combining mark).
        """
        return text.encode("ascii", "replace").translate(_RUN_TABLE).split()

    def raw_tokens(self, text: str) -> List[str]:
        """:meth:`runs` as strings."""
        return [run.decode("ascii") for run in self.runs(text)]

    def accept(self, run: bytes) -> Optional[str]:
        """The token a run stands for — decoded and lower-cased — or
        ``None`` when the length bounds or the digit rule drop it.
        Second half of tokenization, a pure function of *run* and the
        settings.  The decode is exact: a run is ASCII."""
        token = run.decode("ascii").lower()
        if not self.min_length <= len(token) <= self.max_length:
            return None
        if not self.keep_numbers and token.isdigit():
            return None
        return token

    def iter_tokens(self, text: str) -> Iterator[str]:
        """Yield tokens from *text* one at a time."""
        for run in self.runs(text):
            token = self.accept(run)
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
