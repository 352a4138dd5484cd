"""Ranked result lists.

A :class:`RankedList` is the universal result currency of the
reproduction: the centralized system, SPRITE, eSearch, the query
generator's phase 2 (which reasons about rank positions), and the
evaluation metrics all consume it.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Mapping, NamedTuple, Sequence, Tuple


def _rank_key(kv: Tuple[str, float]) -> Tuple[float, str]:
    """Sort key realizing the canonical order: descending score,
    ascending doc id."""
    return (-kv[1], kv[0])


class ScoredDoc(NamedTuple):
    """One ranked entry: a document id with its similarity score."""

    doc_id: str
    score: float


_scored_doc = ScoredDoc._make


class RankedList:
    """An immutable, deterministic ranked list of documents.

    Sorting is by descending score with ascending doc-id tie-break, so
    two systems computing identical scores always produce identical
    orderings — essential for reproducible experiments.

    The list is two flat columns in rank order: the doc ids in a list
    and the scores in an ``array('d')``, 16 B an entry.  A
    :class:`ScoredDoc` is built only when an entry is read (iteration,
    indexing, :meth:`top`); a score round-trips a C double exactly, so
    what is read back is the float that was ranked.
    """

    __slots__ = ("_ids", "_scores")

    def __init__(self, scored: Mapping[str, float] | Sequence[Tuple[str, float]]) -> None:
        items = scored.items() if isinstance(scored, Mapping) else scored
        self._fill(sorted(items, key=_rank_key))

    def _fill(self, ordered: Sequence[Tuple[str, float]]) -> None:
        self._ids: List[str] = [doc_id for doc_id, __ in ordered]
        self._scores = array("d", [score for __, score in ordered])

    @classmethod
    def _from_ordered(cls, ordered: Sequence[Tuple[str, float]]) -> "RankedList":
        """Construct from pairs already in canonical order (no re-sort)."""
        ranked = cls.__new__(cls)
        ranked._fill(ordered)
        return ranked

    @classmethod
    def top_k(
        cls, scored: Mapping[str, float] | Sequence[Tuple[str, float]], k: int
    ) -> "RankedList":
        """The best *k* entries, selected by threshold instead of a full
        keyed sort: the k-th largest score comes from a C sort of the
        bare floats, only entries scoring at least that *floor* are
        sorted under the canonical ``(-score, doc_id)`` key, and the
        list is cut at *k*.

        Everything above the floor is kept and everything tied with it
        survives to the keyed sort, which breaks the tie by doc id
        before the cut — so the result, tie-broken order included, is
        identical to ``RankedList(scored).truncate(k)``.  Raises
        :class:`ValueError` for a negative *k*; ``k == 0`` is the empty
        list.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if k == 0:
            return cls._from_ordered(())
        if isinstance(scored, Mapping):
            items, values = scored.items(), scored.values()
        else:
            items, values = scored, [score for __, score in scored]
        if k < len(items):
            floor = sorted(values, reverse=True)[k - 1]
            items = [kv for kv in items if kv[1] >= floor]
        return cls._from_ordered(sorted(items, key=_rank_key)[:k])

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[ScoredDoc]:
        return map(_scored_doc, zip(self._ids, self._scores))

    def __getitem__(self, rank: int | slice) -> ScoredDoc | List[ScoredDoc]:
        """The entry at *rank*, or a list of the entries a slice selects."""
        if isinstance(rank, slice):
            return list(map(_scored_doc, zip(self._ids[rank], self._scores[rank])))
        return _scored_doc((self._ids[rank], self._scores[rank]))

    def top_ids(self, k: int) -> List[str]:
        """Document ids of the best *k* entries."""
        return self._ids[:k]

    def truncate(self, k: int) -> "RankedList":
        """A new ranked list containing only the best *k* entries
        (:class:`ValueError` for a negative *k*)."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        ranked = RankedList.__new__(RankedList)
        ranked._ids = self._ids[:k]
        ranked._scores = self._scores[:k]
        return ranked
