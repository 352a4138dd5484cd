"""Columnar posting storage for distributed term slots.

The seed implementation kept each indexing peer's inverted list as a
dict of per-posting objects; every fetch materialized and every scoring
pass chased one heap object per posting.  This module stores a slot's
postings as parallel columns instead:

* an ``array('q')`` of doc-id *indices* into a shared interned
  :class:`DocTable` (strings stored once per process, not once per
  posting);
* an ``array('q')`` of raw term frequencies and an ``array('L')`` of
  document lengths (u32 semantics — lengths are clamped to >= 0 on
  ingest; a non-positive length scores 0 either way);
* an ``array('d')`` of precomputed normalized term frequencies and
  per-posting *impacts* (``ntf / sqrt(len)`` — a posting's score
  contribution per unit of query weight).

Alongside the columns each store maintains the slot aggregates the
query path reads:

* the indexed document frequency (column length);
* a **version** counter drawn from a process-global monotone sequence,
  bumped on every mutation.  Because the sequence is global, two slot
  states that report the same version are guaranteed to hold identical
  postings — even across deep copies (replication) and slot lineages —
  which is what makes version equality a sound query-result-cache
  validity check.

``scoring_lookup()`` / ``impact_rows()`` and the ``_ntf`` / ``_impact``
columns have no caller in ``src``: the query executor scores from the
slot's per-version scoring view (``TermSlot.scoring_view()``), which the
slot layer builds from ``rows()`` so that every store serves it alike.
They stay, on both stores, because the benchmark's layer table
(``bench/trace.py``) hooks them by name.

Column order mirrors dict semantics exactly — insertion order, in-place
overwrite keeps a posting's position, removal shifts the tail — so the
order scores accumulate in is the publish order, whatever the store.

This is *the* in-RAM store; :mod:`repro.store` puts SQLite behind the
same interface, and the seed's dict-of-rows store survives only as the
reference model the tests compare both against
(``tests/ir/legacy_postings.py``).  This module must not import
:mod:`repro.core` (the slot layer converts rows to ``PostingEntry``).
"""

from __future__ import annotations

import itertools
from array import array
from math import sqrt
from typing import Dict, Iterator, List, Optional, Tuple

#: One posting as a plain row: (doc_id, owner_peer, raw_tf, doc_length).
PostingRow = Tuple[str, int, int, int]

#: One impact-ordered scoring row: (doc_id, normalized_tf, doc_length, impact).
ImpactRow = Tuple[str, float, int, float]

# Process-global version sequence (see module docstring: global
# monotonicity is what makes "same version => same content" hold across
# replicas and recreated slots).
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


class DocTable:
    """Append-only doc-id intern table shared by every columnar slot.

    Interning maps each document id string to a small integer index so
    posting columns store 8-byte ints instead of string references.  The
    table is append-only and therefore safe to *share* rather than copy:
    ``__deepcopy__`` returns ``self`` so replicating a slot (the
    replication manager deep-copies the slots it ships) does not
    duplicate the registry per replica.
    """

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self._ids: List[str] = []

    def intern(self, doc_id: str) -> int:
        """Index of *doc_id*, assigning the next slot on first sight."""
        idx = self._index.get(doc_id)
        if idx is None:
            idx = len(self._ids)
            self._index[doc_id] = idx
            self._ids.append(doc_id)
        return idx

    def doc_id(self, index: int) -> str:
        """The document id interned at *index*."""
        return self._ids[index]

    def index_of(self, doc_id: str) -> Optional[int]:
        """The interned index of *doc_id*, or ``None`` if never seen."""
        return self._index.get(doc_id)

    def __len__(self) -> int:
        return len(self._ids)

    def __deepcopy__(self, memo) -> "DocTable":
        return self


#: Default shared intern table (one per process is the point).
GLOBAL_DOC_TABLE = DocTable()


class ColumnarPostings:
    """Parallel-array posting store with the slot aggregates (length,
    version) beside the columns."""

    def __init__(self, doc_table: Optional[DocTable] = None) -> None:
        self._docs = doc_table if doc_table is not None else GLOBAL_DOC_TABLE
        self._doc_index = array("q")
        self._raw_tf = array("q")
        self._length = array("L")
        self._ntf = array("d")
        self._impact = array("d")
        # Owner ids may exceed 64 bits (the ring width is configurable up
        # to 128), so they live in a plain list beside the arrays.
        self._owner: List[int] = []
        self._pos: Dict[str, int] = {}
        self._version = next_version()

    # -- aggregates ---------------------------------------------------------

    @property
    def version(self) -> int:
        """Globally-unique content version (bumped on every mutation)."""
        return self._version

    def __len__(self) -> int:
        return len(self._doc_index)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._pos

    # -- mutation -----------------------------------------------------------

    def add(self, doc_id: str, owner_peer: int, raw_tf: int, doc_length: int) -> None:
        """Insert or overwrite the posting for *doc_id* (dict semantics:
        an overwrite keeps the posting's enumeration position)."""
        length = doc_length if doc_length > 0 else 0
        ntf = raw_tf / doc_length if doc_length > 0 else 0.0
        impact = posting_impact(raw_tf, doc_length)
        row = self._pos.get(doc_id)
        if row is None:
            self._pos[doc_id] = len(self._doc_index)
            self._doc_index.append(self._docs.intern(doc_id))
            self._owner.append(owner_peer)
            self._raw_tf.append(raw_tf)
            self._length.append(length)
            self._ntf.append(ntf)
            self._impact.append(impact)
        else:
            self._owner[row] = owner_peer
            self._raw_tf[row] = raw_tf
            self._length[row] = length
            self._ntf[row] = ntf
            self._impact[row] = impact
        self._version = next_version()

    def remove(self, doc_id: str) -> Optional[PostingRow]:
        """Delete and return the posting for *doc_id* (``None`` if absent).

        Removal shifts the tail left — O(n), acceptable for the rare
        unpublish during learning replacement — so enumeration order
        stays identical to a dict's.
        """
        row = self._pos.pop(doc_id, None)
        if row is None:
            return None
        removed = (
            doc_id,
            self._owner[row],
            self._raw_tf[row],
            self._length[row],
        )
        del self._doc_index[row], self._raw_tf[row], self._length[row]
        del self._ntf[row], self._impact[row], self._owner[row]
        for shifted_doc, pos in self._pos.items():
            if pos > row:
                self._pos[shifted_doc] = pos - 1
        self._version = next_version()
        return removed

    # -- reads --------------------------------------------------------------

    def lookup(self, doc_id: str) -> Optional[PostingRow]:
        """The posting row for *doc_id*, or ``None``."""
        row = self._pos.get(doc_id)
        if row is None:
            return None
        return (doc_id, self._owner[row], self._raw_tf[row], self._length[row])

    def scoring_lookup(self, doc_id: str) -> Optional[Tuple[float, int]]:
        """``(normalized_tf, doc_length)`` for *doc_id*, or ``None`` —
        the two inputs the scorer needs, straight from the columns."""
        row = self._pos.get(doc_id)
        if row is None:
            return None
        return (self._ntf[row], self._length[row])

    def rows(self) -> Iterator[PostingRow]:
        """All postings in insertion (dict-equivalent) order."""
        docs = self._docs
        for i in range(len(self._doc_index)):
            yield (
                docs.doc_id(self._doc_index[i]),
                self._owner[i],
                self._raw_tf[i],
                self._length[i],
            )

    def impact_rows(self) -> List[ImpactRow]:
        """Scoring rows sorted by descending impact, doc-id tie-break."""
        docs = self._docs
        rows = [
            (docs.doc_id(self._doc_index[i]), self._ntf[i], self._length[i], self._impact[i])
            for i in range(len(self._doc_index))
        ]
        rows.sort(key=lambda r: (-r[3], r[0]))
        return rows

    # -- replication support ------------------------------------------------

    def __deepcopy__(self, memo) -> "ColumnarPostings":
        """Structural clone: every column is flat (numbers, or interned
        strings in ``_pos``), so a slice per column is a full copy.
        The append-only :class:`DocTable` is shared and ``_version`` is
        kept — the content is identical, which is what a version
        asserts."""
        clone = object.__new__(type(self))
        clone._docs = self._docs
        clone._doc_index = self._doc_index[:]
        clone._raw_tf = self._raw_tf[:]
        clone._length = self._length[:]
        clone._ntf = self._ntf[:]
        clone._impact = self._impact[:]
        clone._owner = self._owner[:]
        clone._pos = self._pos.copy()
        clone._version = self._version
        return clone
