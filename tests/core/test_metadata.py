"""Tests for SPRITE metadata structures."""

from __future__ import annotations

from math import inf, sqrt

import pytest

from repro.core import metadata
from repro.core.metadata import (
    CachedQuery,
    CachedResult,
    PostingEntry,
    QueryCache,
    QueryResultCache,
    TermSlot,
    TermStats,
    query_digest,
)
from repro.ir.ranking import RankedList
from repro.store import SqlitePostings
from ..probes import posting


class TestPostingEntry:
    def test_normalized_tf(self) -> None:
        entry = PostingEntry(doc_id="d1", owner_peer=7, raw_tf=3, doc_length=12)
        assert entry.normalized_tf == pytest.approx(0.25)

    def test_zero_length_document(self) -> None:
        entry = PostingEntry(doc_id="d1", owner_peer=7, raw_tf=0, doc_length=0)
        assert entry.normalized_tf == 0.0

    def test_frozen(self) -> None:
        entry = PostingEntry("d1", 7, 3, 12)
        with pytest.raises(AttributeError):
            entry.raw_tf = 9  # type: ignore[misc]

    def test_the_four_fields_in_the_store_row_order(self) -> None:
        """A posting is a named tuple whose fields are a posting store's
        row, in order: a slot hands an entry to the store as it is."""
        assert PostingEntry._fields == ("doc_id", "owner_peer", "raw_tf", "doc_length")
        entry = PostingEntry(doc_id="d1", owner_peer=7, raw_tf=3, doc_length=12)
        assert tuple(entry) == ("d1", 7, 3, 12)
        assert (entry.doc_id, entry.owner_peer, entry.raw_tf, entry.doc_length) == tuple(entry)

    def test_equal_postings_are_equal_however_built(self) -> None:
        """The owner builds postings with ``tuple.__new__``; they are the
        same value as a keyword-built one — equal, same hash, same type,
        as immutable, with ``normalized_tf``."""
        keyword = PostingEntry(doc_id="d1", owner_peer=7, raw_tf=3, doc_length=12)
        fast = tuple.__new__(PostingEntry, ("d1", 7, 3, 12))
        assert type(fast) is PostingEntry
        assert fast == keyword and hash(fast) == hash(keyword)
        assert fast.normalized_tf == keyword.normalized_tf == pytest.approx(0.25)
        assert keyword != PostingEntry("d1", 7, 4, 12)
        with pytest.raises(AttributeError):
            fast.doc_length = 1  # type: ignore[misc]
        with pytest.raises(TypeError):
            fast[0] = "d2"  # type: ignore[index]


class TestQueryCache:
    def test_sequences_monotone(self) -> None:
        cache = QueryCache(capacity=10)
        a = cache.add(("a",), query_hash=1)
        b = cache.add(("b",), query_hash=2)
        assert b.sequence == a.sequence + 1

    def test_capacity_evicts_oldest(self) -> None:
        cache = QueryCache(capacity=2)
        cache.add(("a",), 1)
        cache.add(("b",), 2)
        cache.add(("c",), 3)
        terms = [e.terms for e in cache]
        assert terms == [("b",), ("c",)]

    def test_reissue_appends_fresh_arrival(self) -> None:
        """Identical queries are stored per-arrival (QF counts repeats —
        the popularity signal under skewed streams)."""
        cache = QueryCache(capacity=5)
        cache.add(("a",), 1)
        cache.add(("b",), 2)
        refreshed = cache.add(("a",), 1)   # re-issued popular query
        assert refreshed.sequence == 2
        assert [e.terms for e in cache] == [("a",), ("b",), ("a",)]
        assert len(cache.since(-1)) == 3

    def test_since_returns_only_newer(self) -> None:
        cache = QueryCache(capacity=10)
        cache.add(("a",), 1)
        marker = cache.latest_sequence
        cache.add(("b",), 2)
        cache.add(("c",), 3)
        fresh = cache.since(marker)
        assert [e.terms for e in fresh] == [("b",), ("c",)]

    def test_since_with_no_new(self) -> None:
        cache = QueryCache(capacity=10)
        cache.add(("a",), 1)
        assert cache.since(cache.latest_sequence) == []

    def test_latest_sequence_empty(self) -> None:
        assert QueryCache(capacity=4).latest_sequence == -1

    def test_invalid_capacity(self) -> None:
        with pytest.raises(ValueError):
            QueryCache(capacity=0)

    def test_len(self) -> None:
        cache = QueryCache(capacity=5)
        cache.add(("a",), 1)
        cache.add(("b",), 2)
        assert len(cache) == 2

    def test_a_repeat_evicts_only_past_capacity(self) -> None:
        cache = QueryCache(capacity=3)
        for n, terms in enumerate((("a",), ("b",), ("c",))):
            cache.add(terms, n)
        repeat = cache.add_repeat(query_digest(("a",)))
        assert repeat == CachedQuery(("a",), 0, 3)
        assert list(cache) == [CachedQuery(("b",), 1, 1), CachedQuery(("c",), 2, 2), repeat]

    def test_a_digest_two_cached_tuples_share_resolves_to_neither(self, monkeypatch) -> None:
        """Restoring reindexes: a digest shared by two tuples is marked
        unresolvable, one tuple's repeats keep its latest arrival; and
        evicting one of the two tuples reindexes, so the other resolves."""
        digest = query_digest
        shared = (("a",), ("b",))
        monkeypatch.setattr(
            metadata, "query_digest", lambda terms: 0 if terms in shared else digest(terms)
        )
        cache = QueryCache.from_state(
            4, [(("a",), 1, 0), (("c",), 3, 1), (("b",), 2, 2), (("c",), 3, 3)], 4
        )
        assert cache.digests[0] is None
        assert cache.digests[digest(("c",))] == CachedQuery(("c",), 3, 3)
        assert cache.add_repeat(0) is None
        cache.add(("d",), 4)
        assert cache.digests[0] == CachedQuery(("b",), 2, 2)
        assert cache.add_repeat(0) == CachedQuery(("b",), 2, 5)


class TestTermSlot:
    def test_indexed_document_frequency(self) -> None:
        slot = TermSlot(term="chord")
        slot.add_posting(PostingEntry("d1", 1, 1, 10))
        slot.add_posting(PostingEntry("d2", 2, 1, 10))
        assert slot.indexed_document_frequency == 2

    def test_add_overwrites_same_doc(self) -> None:
        slot = TermSlot(term="chord")
        slot.add_posting(PostingEntry("d1", 1, 1, 10))
        slot.add_posting(PostingEntry("d1", 1, 5, 10))
        assert slot.indexed_document_frequency == 1
        assert posting(slot, "d1").raw_tf == 5

    def test_remove_posting(self) -> None:
        slot = TermSlot(term="chord")
        slot.add_posting(PostingEntry("d1", 1, 1, 10))
        removed = slot.remove_posting("d1")
        assert removed is not None
        assert slot.indexed_document_frequency == 0
        assert slot.remove_posting("d1") is None

    def test_get_and_remove_return_every_stored_field(self) -> None:
        slot = TermSlot(term="chord")
        slot.add_posting(PostingEntry("d1", owner_peer=7, raw_tf=3, doc_length=40))
        slot.add_posting(PostingEntry("d2", owner_peer=9, raw_tf=2, doc_length=12))
        assert posting(slot, "d1") == PostingEntry("d1", 7, 3, 40)
        assert slot.remove_posting("d2") == PostingEntry("d2", 9, 2, 12)
        assert posting(slot, "d2") is None

    def test_a_shipped_slot_records_a_batch_on_a_store_that_adds_many(self, conn) -> None:
        """An overwrite, a new document and that document again, in one
        batch: each row records whether the list had its document just
        before it, and only the first the version a reader could hold."""
        slot = TermSlot("chord", store=SqlitePostings(conn, 1))
        slot.add_posting(PostingEntry("d1", 1, 1, 10))
        slot.add_posting(PostingEntry("d2", 2, 1, 10))
        assert slot.ship(None) is None  # the first ship starts the record
        held = slot.version
        slot.add_postings([
            PostingEntry("d1", 1, 4, 10),
            PostingEntry("d3", 3, 1, 10),
            PostingEntry("d3", 3, 2, 10),
        ])
        assert slot.mutations == [
            (held, "d1", True, True),
            (None, "d3", False, True),
            (None, "d3", True, True),
        ]

    def test_scoring_view_columns_match_the_entries(self) -> None:
        slot = TermSlot(term="chord")
        slot.add_posting(PostingEntry("d2", 7, 3, 12))
        slot.add_posting(PostingEntry("d1", 9, 1, 0))
        slot.add_posting(PostingEntry("d3", 5, 2, 1))
        doc_ids, ntfs, norms = slot.scoring_view()
        assert doc_ids == ["d2", "d1", "d3"]
        assert ntfs == [3 / 12, 0.0, 2.0]
        assert norms == [sqrt(12), inf, 1.0]  # a zero-length document: x / inf == 0.0
        assert doc_ids == [e.doc_id for e in slot.entries()]
        assert ntfs == [e.normalized_tf for e in slot.entries()]
        assert all(type(column) is list for column in slot.scoring_view())

    def test_scoring_view_cached_per_version(self) -> None:
        slot = TermSlot(term="chord")
        slot.add_posting(PostingEntry("d1", 1, 1, 10))
        first = slot.scoring_view()
        assert slot.scoring_view() is first
        slot.add_posting(PostingEntry("d2", 2, 1, 10))
        assert slot.scoring_view() is not first
        assert slot.scoring_view()[0] == ["d1", "d2"]
        slot.remove_posting("d1")
        assert slot.scoring_view()[0] == ["d2"]

    def test_reading_the_scoring_view_builds_no_posting_entries(self) -> None:
        # The query path reads scoring_view() only; the PostingEntry
        # views are for the fetch API and must not be materialized as a
        # side effect.
        slot = TermSlot(term="chord")
        slot.add_posting(PostingEntry("d1", 1, 1, 10))
        slot.scoring_view()
        assert slot._entries_view == []
        assert [e.doc_id for e in slot.entries()] == ["d1"]


class TestTermStats:
    def test_absorb_maxes_qscore(self) -> None:
        stats = TermStats()
        stats.absorb(0.5, 3)
        stats.absorb(0.3, 2)
        stats.absorb(0.8, 1)
        assert stats.max_qscore == 0.8

    def test_absorb_accumulates_qf(self) -> None:
        stats = TermStats()
        stats.absorb(0.5, 3)
        stats.absorb(0.3, 2)
        assert stats.query_frequency == 5


class TestQueryResultCache:
    def test_a_cache_of_one_holds_the_latest_result(self) -> None:
        cache = QueryResultCache(1)
        first = CachedResult(("a",), 1, {}, frozenset(), RankedList({}))
        second = CachedResult(("b",), 1, {}, frozenset(), RankedList({}))
        cache.put(1, first)
        assert cache.get(1) is first
        cache.put(2, second)
        assert cache.get(1) is None
        assert cache.get(2) is second
        assert len(cache) == 1
