"""The in-RAM posting store of a distributed term slot.

Section 5.1 gives an indexing peer one inverted list per term: (owner,
document id, term frequency, document length) in publish order.
:class:`RamPostings` holds it as what that is — one insertion-ordered
``dict`` from document id to its :data:`PostingRow` — so the order
scores accumulate in is the publish order: an overwrite keeps a
posting's position, a removal closes the gap.  Document lengths are
clamped to >= 0 on ingest (a non-positive length scores 0 either way).

Beside the rows a store keeps a **version** drawn from a process-global
monotone sequence, one tick per mutation.  Because the sequence is
global, two slot states that report the same version hold identical
postings — even across deep copies (replication) and slot lineages —
which makes version equality a sound query-result-cache validity check.

The class's public surface is the posting-store contract:
:mod:`repro.store` puts SQLite behind the same one, and the tests hold
both to an independent model (``tests/ir/legacy_postings.py``).
``scoring_lookup()`` and ``impact_rows()`` have no caller in ``src``
(the executor scores from ``TermSlot.scoring_view()``, built from
``rows()``); both stores keep them, computed from the row on demand,
because the benchmark's layer table (``bench/trace.py``) names them.
This module must not import :mod:`repro.core`: the slot layer converts
rows to ``PostingEntry``.
"""

from __future__ import annotations

import itertools
from math import sqrt
from typing import Dict, Iterator, List, Optional, Tuple

#: One posting as a plain row: (doc_id, owner_peer, raw_tf, doc_length).
PostingRow = Tuple[str, int, int, int]

#: One impact-ordered scoring row: (doc_id, normalized_tf, doc_length, impact).
ImpactRow = Tuple[str, float, int, float]

# Process-global, so "same version => same content" holds across slots.
_VERSIONS = itertools.count(1)


def next_version() -> int:
    """Draw the next globally-unique slot version."""
    return next(_VERSIONS)


def posting_impact(raw_tf: int, doc_length: int) -> float:
    """``ntf / sqrt(len)`` — the score a posting contributes per unit of
    combined query/IDF weight; 0 for degenerate lengths, matching the
    scoring guard in the query processor."""
    if doc_length <= 0:
        return 0.0
    return (raw_tf / doc_length) / sqrt(doc_length)


class RamPostings:
    """``doc_id -> PostingRow`` in publish order, plus the version."""

    def __init__(self) -> None:
        self._rows: Dict[str, PostingRow] = {}
        self._version = next_version()

    @property
    def version(self) -> int:
        """Globally-unique content version (bumped on every mutation)."""
        return self._version

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._rows

    def add(self, doc_id: str, owner_peer: int, raw_tf: int, doc_length: int) -> None:
        """Insert or overwrite the posting for *doc_id* (an overwrite
        keeps the posting's enumeration position)."""
        length = doc_length if doc_length > 0 else 0
        self._rows[doc_id] = (doc_id, owner_peer, raw_tf, length)
        self._version = next_version()

    def remove(self, doc_id: str) -> Optional[PostingRow]:
        """Delete and return the posting for *doc_id* (``None`` if absent)."""
        row = self._rows.pop(doc_id, None)
        if row is not None:
            self._version = next_version()
        return row

    def lookup(self, doc_id: str) -> Optional[PostingRow]:
        """The posting row for *doc_id*, or ``None``."""
        return self._rows.get(doc_id)

    def scoring_lookup(self, doc_id: str) -> Optional[Tuple[float, int]]:
        """``(normalized_tf, doc_length)`` for *doc_id*, or ``None``."""
        row = self._rows.get(doc_id)
        if row is None:
            return None
        __, __, raw_tf, length = row
        return (raw_tf / length if length > 0 else 0.0, length)

    def rows(self) -> Iterator[PostingRow]:
        """All postings in publish order."""
        return iter(self._rows.values())

    def impact_rows(self) -> List[ImpactRow]:
        """Scoring rows sorted by descending impact, doc-id tie-break."""
        rows: List[ImpactRow] = [
            (
                doc_id,
                raw_tf / length if length > 0 else 0.0,
                length,
                posting_impact(raw_tf, length),
            )
            for doc_id, __, raw_tf, length in self._rows.values()
        ]
        rows.sort(key=lambda r: (-r[3], r[0]))
        return rows

    def __deepcopy__(self, memo) -> "RamPostings":
        """Structural clone for replication: a new dict over the same
        immutable rows, under the same version — the content is identical."""
        clone = object.__new__(type(self))
        clone._rows = self._rows.copy()
        clone._version = self._version
        return clone


#: The name ``bench/trace.py``'s ``LAYER_TABLE`` resolves (ROADMAP 1b).
ColumnarPostings = RamPostings
