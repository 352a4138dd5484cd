"""The seed dict-of-rows posting store, kept as a reference model.

It honours the posting-store contract of :mod:`repro.ir.postings` with
the slot aggregates computed on demand, so a test can back a slot with
it (``TermSlot(store=LegacyPostings())``) or a whole system
(:func:`install_legacy_store`) and require the store under test to
agree.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.ir.postings import ImpactRow, PostingRow, next_version, posting_impact


class LegacyPostings:
    """Same interface as :class:`~repro.ir.postings.RamPostings`;
    replication copies it through the generic ``copy.deepcopy``."""

    def __init__(self) -> None:
        self._rows: Dict[str, Tuple[int, int, int]] = {}
        self._version = next_version()

    @property
    def version(self) -> int:
        return self._version

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._rows

    def add(self, doc_id: str, owner_peer: int, raw_tf: int, doc_length: int) -> None:
        self._rows[doc_id] = (owner_peer, raw_tf, doc_length)
        self._version = next_version()

    def remove(self, doc_id: str) -> Optional[PostingRow]:
        row = self._rows.pop(doc_id, None)
        if row is None:
            return None
        self._version = next_version()
        return (doc_id, row[0], row[1], row[2])

    def lookup(self, doc_id: str) -> Optional[PostingRow]:
        row = self._rows.get(doc_id)
        if row is None:
            return None
        return (doc_id, row[0], row[1], row[2])

    def scoring_lookup(self, doc_id: str) -> Optional[Tuple[float, int]]:
        row = self._rows.get(doc_id)
        if row is None:
            return None
        __, tf, length = row
        return (tf / length if length > 0 else 0.0, length)

    def rows(self) -> Iterator[PostingRow]:
        for doc_id, (owner, tf, length) in self._rows.items():
            yield (doc_id, owner, tf, length)

    def impact_rows(self) -> List[ImpactRow]:
        rows = [
            (
                doc_id,
                tf / length if length > 0 else 0.0,
                length if length > 0 else 0,
                posting_impact(tf, length),
            )
            for doc_id, (__, tf, length) in self._rows.items()
        ]
        rows.sort(key=lambda r: (-r[3], r[0]))
        return rows


class LegacyStoreRuntime:
    """``store_runtime=`` stand-in: every new slot gets a
    :class:`LegacyPostings`."""

    def new_postings(self, node_id: int) -> LegacyPostings:
        return LegacyPostings()


def install_legacy_store(system):
    """Make every slot *system* creates a :class:`LegacyPostings` one:
    :class:`LegacyStoreRuntime` becomes the protocol's store runtime."""
    system.protocol.store_runtime = LegacyStoreRuntime()
    return system
