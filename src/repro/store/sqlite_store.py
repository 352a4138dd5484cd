"""SQLite-backed posting store with the in-RAM store's contract.

:class:`SqlitePostings` is the disk backend behind the
:class:`~repro.core.metadata.TermSlot` posting-store interface
(:class:`~repro.ir.postings.RamPostings` is the in-RAM one).  Rows
live in one shared ``postings`` table keyed by a per-store *slot id*,
reached through the runtime's one connection; every point operation
is a primary-key probe.  The store object keeps only small Python-side
mirrors (posting count, next insertion sequence, the content version).

The contract it must honour to stay bit-identical to the in-RAM path:

* **Enumeration order is dict order.**  Each row carries an insertion
  sequence number; reads order by it.  Overwrites keep the row's
  sequence (a dict overwrite keeps its position) and deletions leave the
  remaining order untouched.
* **Floats are never stored.**  Only the integer ``(tf, len)`` pair is
  persisted; normalized tf and impact are recomputed on demand through
  the exact expressions the in-RAM store uses (integers round-trip
  exactly, so the derived floats are bit-identical).
* **Versions come from the shared process-global sequence**
  (:func:`~repro.ir.postings.next_version`), one tick per mutation, so
  version *rank order* across a system matches the in-RAM build and
  "same version => same content" still holds across backends.

Extras the RAM backends do not have:

* ``add_many`` wraps a PUBLISH_BATCH run in one SQLite transaction and
  rolls back (restoring the Python mirrors) if any row fails — the
  crash-mid-batch consistency guarantee.
* ``__deepcopy__`` clones the rows under a fresh slot id on the same
  connection — replication deep-copies the slots it ships, and a SQLite
  connection itself cannot be deep-copied.
"""

from __future__ import annotations

import itertools
import sqlite3
from typing import Iterable, Iterator, List, Optional, Tuple

from ..ir.postings import ImpactRow, PostingRow, next_version, posting_impact

_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS postings (
        slot  INTEGER NOT NULL,
        doc   TEXT    NOT NULL,
        seq   INTEGER NOT NULL,
        owner TEXT    NOT NULL,
        tf    INTEGER NOT NULL,
        len   INTEGER NOT NULL,
        PRIMARY KEY (slot, doc)
    ) WITHOUT ROWID
    """,
    "CREATE INDEX IF NOT EXISTS postings_order ON postings (slot, seq)",
)

#: Fallback slot-id sequence for stores built without a runtime (unit
#: tests); starts far above anything a runtime allocates.
_FALLBACK_SLOT_IDS = itertools.count(1 << 40)


def init_schema(conn: sqlite3.Connection) -> None:
    """Create the postings table and its ordering index if missing."""
    for statement in _SCHEMA:
        conn.execute(statement)


class SqlitePostings:
    """Disk-backed posting store, row-compatible with the RAM backends.

    Parameters
    ----------
    conn:
        The connection rows go through (a runtime's one connection,
        shared by every store it builds).
    slot_id:
        This store's partition key in the shared table; must be unique
        per database file (use :meth:`StoreRuntime.new_postings`).
    runtime:
        Owning :class:`~repro.store.runtime.StoreRuntime`, used for slot
        id allocation on deepcopy and garbage-row reclamation; optional
        for standalone use.
    """

    def __init__(self, conn: sqlite3.Connection, slot_id: int, runtime=None) -> None:
        self._conn = conn
        self._slot = slot_id
        self._runtime = runtime
        self._count = 0
        self._next_seq = 0
        self._version = next_version()
        if runtime is not None:
            runtime.register(self)

    # -- aggregates ---------------------------------------------------------

    @property
    def slot_id(self) -> int:
        return self._slot

    @property
    def version(self) -> int:
        """Globally-unique content version (bumped on every mutation)."""
        return self._version

    def __len__(self) -> int:
        return self._count

    def __contains__(self, doc_id: str) -> bool:
        return (
            self._conn.execute(
                "SELECT 1 FROM postings WHERE slot = ? AND doc = ?",
                (self._slot, doc_id),
            ).fetchone()
            is not None
        )

    # -- mutation -----------------------------------------------------------

    def add(self, doc_id: str, owner_peer: int, raw_tf: int, doc_length: int) -> None:
        """Insert or overwrite the posting for *doc_id* (dict semantics:
        an overwrite keeps the posting's enumeration position)."""
        length = doc_length if doc_length > 0 else 0
        existing = self._conn.execute(
            "SELECT 1 FROM postings WHERE slot = ? AND doc = ?",
            (self._slot, doc_id),
        ).fetchone()
        if existing is None:
            self._conn.execute(
                "INSERT INTO postings (slot, doc, seq, owner, tf, len) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                # Owner ids may exceed 64 bits (ring widths up to 128),
                # so they are stored as decimal text.
                (self._slot, doc_id, self._next_seq, str(owner_peer), raw_tf, length),
            )
            self._next_seq += 1
            self._count += 1
        else:
            self._conn.execute(
                "UPDATE postings SET owner = ?, tf = ?, len = ? "
                "WHERE slot = ? AND doc = ?",
                (str(owner_peer), raw_tf, length, self._slot, doc_id),
            )
        self._version = next_version()

    def add_many(self, rows: Iterable[Tuple[str, int, int, int]]) -> int:
        """Apply one publish batch inside a single transaction.

        On any failure the transaction rolls back and the Python-side
        mirrors are restored, so a crash mid-batch leaves the store in
        its exact pre-batch state.  The connection is shared, but only
        this batch writes between its ``BEGIN`` and ``ROLLBACK``, so no
        other store's rows are touched.  Each row still draws its own
        global version tick, exactly like the loop the RAM backends run.
        """
        rows = list(rows)
        if not rows:
            return 0
        if self._conn.in_transaction:  # already inside a caller's batch
            for doc_id, owner_peer, raw_tf, doc_length in rows:
                self.add(doc_id, owner_peer, raw_tf, doc_length)
            return len(rows)
        saved = (self._count, self._next_seq, self._version)
        self._conn.execute("BEGIN")
        try:
            for doc_id, owner_peer, raw_tf, doc_length in rows:
                self.add(doc_id, owner_peer, raw_tf, doc_length)
        except BaseException:
            self._conn.execute("ROLLBACK")
            self._count, self._next_seq, self._version = saved
            raise
        self._conn.execute("COMMIT")
        return len(rows)

    def remove(self, doc_id: str) -> Optional[PostingRow]:
        """Delete and return the posting for *doc_id* (``None`` if absent)."""
        row = self._conn.execute(
            "SELECT owner, tf, len FROM postings WHERE slot = ? AND doc = ?",
            (self._slot, doc_id),
        ).fetchone()
        if row is None:
            return None
        owner, raw_tf, length = row
        self._conn.execute(
            "DELETE FROM postings WHERE slot = ? AND doc = ?",
            (self._slot, doc_id),
        )
        self._count -= 1
        self._version = next_version()
        return (doc_id, int(owner), raw_tf, length)

    # -- reads --------------------------------------------------------------

    def lookup(self, doc_id: str) -> Optional[PostingRow]:
        """The posting row for *doc_id*, or ``None``."""
        row = self._conn.execute(
            "SELECT owner, tf, len FROM postings WHERE slot = ? AND doc = ?",
            (self._slot, doc_id),
        ).fetchone()
        if row is None:
            return None
        return (doc_id, int(row[0]), row[1], row[2])

    def scoring_lookup(self, doc_id: str) -> Optional[Tuple[float, int]]:
        """``(normalized_tf, doc_length)`` for *doc_id*, or ``None``.
        Recomputed from the stored integers with the same expression the
        in-RAM store uses, so the float is bit-identical."""
        row = self._conn.execute(
            "SELECT tf, len FROM postings WHERE slot = ? AND doc = ?",
            (self._slot, doc_id),
        ).fetchone()
        if row is None:
            return None
        raw_tf, length = row
        return (raw_tf / length if length > 0 else 0.0, length)

    def rows(self) -> Iterator[PostingRow]:
        """All postings in insertion (dict-equivalent) order."""
        fetched = self._conn.execute(
            "SELECT doc, owner, tf, len FROM postings WHERE slot = ? ORDER BY seq",
            (self._slot,),
        ).fetchall()
        for doc_id, owner, raw_tf, length in fetched:
            yield (doc_id, int(owner), raw_tf, length)

    def impact_rows(self) -> List[ImpactRow]:
        """Scoring rows sorted by descending impact, doc-id tie-break.
        The stable sort runs over insertion order — the same base order
        the in-RAM store sorts — so ties land identically."""
        rows: List[ImpactRow] = [
            (
                doc_id,
                raw_tf / length if length > 0 else 0.0,
                length,
                posting_impact(raw_tf, length),
            )
            for doc_id, __, raw_tf, length in self.rows()
        ]
        rows.sort(key=lambda r: (-r[3], r[0]))
        return rows

    # -- replication support -------------------------------------------------

    def __deepcopy__(self, memo) -> "SqlitePostings":
        """Clone the rows under a fresh slot id on the same connection.

        Keeps ``_version``: the clone's content is identical, and the
        in-RAM backends' deepcopy preserves the version too (that is
        what makes version equality a sound replica-freshness check —
        the one :attr:`~repro.core.metadata.TermSlot.replica_stamp`
        rests on).
        """
        clone = object.__new__(type(self))
        clone._conn = self._conn
        clone._runtime = self._runtime
        if self._runtime is not None:
            clone._slot = self._runtime.allocate_slot_id()
        else:
            clone._slot = next(_FALLBACK_SLOT_IDS)
        self._conn.execute(
            "INSERT INTO postings (slot, doc, seq, owner, tf, len) "
            "SELECT ?, doc, seq, owner, tf, len FROM postings WHERE slot = ?",
            (clone._slot, self._slot),
        )
        clone._count = self._count
        clone._next_seq = self._next_seq
        clone._version = self._version
        if self._runtime is not None:
            self._runtime.register(clone)
        memo[id(self)] = clone
        return clone
