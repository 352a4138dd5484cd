"""Ranked result lists.

A :class:`RankedList` is the universal result currency of the
reproduction: the centralized system, SPRITE, eSearch, the query
generator's phase 2 (which reasons about rank positions), and the
evaluation metrics all consume it.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, NamedTuple, Sequence, Tuple


def _rank_key(kv: Tuple[str, float]) -> Tuple[float, str]:
    """Sort key realizing the canonical order: descending score,
    ascending doc id."""
    return (-kv[1], kv[0])


class ScoredDoc(NamedTuple):
    """One ranked entry: a document id with its similarity score."""

    doc_id: str
    score: float


class RankedList:
    """An immutable, deterministic ranked list of documents.

    Sorting is by descending score with ascending doc-id tie-break, so
    two systems computing identical scores always produce identical
    orderings — essential for reproducible experiments.
    """

    def __init__(self, scored: Mapping[str, float] | Sequence[Tuple[str, float]]) -> None:
        items = scored.items() if isinstance(scored, Mapping) else scored
        ordered = sorted(items, key=_rank_key)
        self._entries: List[ScoredDoc] = list(map(ScoredDoc._make, ordered))

    @classmethod
    def _from_ordered(cls, ordered: Sequence[Tuple[str, float]]) -> "RankedList":
        """Construct from pairs already in canonical order (no re-sort)."""
        ranked = cls.__new__(cls)
        ranked._entries = list(map(ScoredDoc._make, ordered))
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
        return len(self._entries)

    def __iter__(self) -> Iterator[ScoredDoc]:
        return iter(self._entries)

    def __getitem__(self, rank: int) -> ScoredDoc:
        return self._entries[rank]

    def top(self, k: int) -> List[ScoredDoc]:
        """The best *k* entries (fewer if the list is shorter)."""
        return self._entries[:k]

    def top_ids(self, k: int) -> List[str]:
        """Document ids of the best *k* entries."""
        return [e.doc_id for e in self._entries[:k]]

    def truncate(self, k: int) -> "RankedList":
        """A new ranked list containing only the best *k* entries
        (:class:`ValueError` for a negative *k*)."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        return RankedList._from_ordered(self._entries[:k])
