"""English stop-word list.

The paper (Section 6) states: "The default stop-word-list in Lucene is
used for this purpose."  This module embeds exactly that list — the 33
words of Lucene's ``StandardAnalyzer.ENGLISH_STOP_WORDS_SET`` — so the
reproduction filters the same tokens the original system did.
"""

from __future__ import annotations

from typing import FrozenSet

#: Lucene's default English stop words (StandardAnalyzer), verbatim.
LUCENE_STOP_WORDS: FrozenSet[str] = frozenset(
    {
        "a", "an", "and", "are", "as", "at", "be", "but", "by",
        "for", "if", "in", "into", "is", "it", "no", "not", "of",
        "on", "or", "such", "that", "the", "their", "then", "there",
        "these", "they", "this", "to", "was", "will", "with",
    }
)
