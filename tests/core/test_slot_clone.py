"""The structural slot clones against the copy they replaced.

``TermSlot``, ``QueryCache`` and ``RamPostings`` define their own
``__deepcopy__`` (replication copies slots by the thousand).  Each must
be indistinguishable from what ``copy.deepcopy`` produced while it still
walked their instance dicts — kept here as :func:`generic_deepcopy` — and
share nothing mutable with the original.  ``LegacyPostings`` still takes
the generic path and ``SqlitePostings`` its own row clone; both go
through the same assertions.
"""

from __future__ import annotations

import copy

import pytest

from repro.core.metadata import PostingEntry, QueryCache, TermSlot
from repro.ir.postings import RamPostings

from ..ir.legacy_postings import LegacyPostings
from ..probes import posting

STRUCTURAL = (TermSlot, QueryCache, RamPostings)


def generic_deepcopy(obj):
    """``copy.deepcopy`` as it treated these classes before they had a
    ``__deepcopy__``: a new instance whose dict is copied member by
    member (a member with a hook of its own — a SQLite store — used it
    then too)."""
    if type(obj) not in STRUCTURAL:
        return copy.deepcopy(obj)
    clone = object.__new__(type(obj))
    for name, value in vars(obj).items():
        setattr(clone, name, generic_deepcopy(value))
    return clone


def entry(doc: str, tf: int, length: int = 100, owner: int = 7) -> PostingEntry:
    return PostingEntry(doc_id=doc, owner_peer=owner, raw_tf=tf, doc_length=length)


def populate(slot: TermSlot, dirty_max: bool) -> TermSlot:
    """Five postings, one overwrite, four cached queries (one already
    evicted).  With *dirty_max* the largest-impact posting is removed
    last, so the copy is taken of columns a removal has shifted."""
    for i, tf in enumerate([3, 9, 1, 5, 2]):
        slot.add_posting(entry(f"d{i}", tf, owner=(1 << 70) + i))
    slot.add_posting(entry("d2", 4, length=200))
    for i in range(4):
        slot.cache.add((f"q{i}", "term"), query_hash=1000 + i)
    if dirty_max:
        slot.remove_posting("d1")
    return slot


def observe(slot: TermSlot) -> dict:
    """Everything a caller can see of a slot, lazy views included."""
    return {
        "term": slot.term,
        "rows": list(slot._store.rows()),
        "impact_rows": slot._store.impact_rows(),
        "version": slot.version,
        "stamp": slot.replica_stamp,
        "df": slot.indexed_document_frequency,
        "since": slot.cache.since(-1),
        "since_2": slot.cache.since(2),
        "latest_sequence": slot.cache.latest_sequence,
        "capacity": slot.cache.capacity,
        "scoring_view": slot.scoring_view(),
        "entries": slot.entries(),
        "lookup": posting(slot, "d3"),
        "scoring": slot._store.scoring_lookup("d3"),
    }


@pytest.mark.parametrize("dirty_max", [False, True], ids=["clean-max", "dirty-max"])
class TestCloneEqualsGenericCopy:
    def test_every_observable_matches(self, make_slot, dirty_max) -> None:
        slot = populate(make_slot(), dirty_max)
        reference = observe(generic_deepcopy(slot))
        assert observe(copy.deepcopy(slot)) == reference
        assert observe(slot) == reference  # and copying perturbed nothing

    def test_matches_when_the_original_views_were_warm(self, make_slot, dirty_max) -> None:
        slot = populate(make_slot(), dirty_max)
        before = observe(slot)  # builds scoring/entries views
        clone = copy.deepcopy(slot)
        assert observe(clone) == before
        assert clone.scoring_view() is not slot.scoring_view()
        assert clone.entries() is not slot.entries()

    def test_version_is_kept_and_moves_independently(self, make_slot, dirty_max) -> None:
        slot = populate(make_slot(), dirty_max)
        clone = copy.deepcopy(slot)
        assert clone.replica_stamp == slot.replica_stamp
        clone.add_posting(entry("fresh", 2))
        assert clone.version != slot.version
        assert clone.replica_stamp != slot.replica_stamp


def mutate(slot: TermSlot) -> None:
    """One of each write: insert (a new maximum), overwrite in place,
    remove, overwrite the maximum downwards (so the lazy recompute
    runs), and a cache add that evicts at capacity."""
    slot.add_posting(entry("new", 8, length=40))
    slot.add_posting(entry("d0", 6))
    slot.remove_posting("d3")
    slot.add_posting(entry("new", 1, length=40))
    slot.cache.add(("late", "term"), query_hash=9)


@pytest.mark.parametrize("dirty_max", [False, True], ids=["clean-max", "dirty-max"])
class TestCloneIsIsolated:
    def test_mutating_the_original_leaves_the_clone(self, make_slot, dirty_max) -> None:
        slot = populate(make_slot(), dirty_max)
        clone = copy.deepcopy(slot)
        before = observe(clone)
        mutate(slot)
        assert observe(clone) == before
        assert observe(slot) != before

    def test_mutating_the_clone_leaves_the_original(self, make_slot, dirty_max) -> None:
        slot = populate(make_slot(), dirty_max)
        before = observe(slot)
        clone = copy.deepcopy(slot)
        mutate(clone)
        assert observe(slot) == before
        assert observe(clone) != before

    def test_both_sides_reach_the_same_state_independently(self, make_slot, dirty_max) -> None:
        """Same writes on either side give the same content (versions
        aside): the clone is a working slot, not a frozen picture."""
        slot = populate(make_slot(), dirty_max)
        clone = copy.deepcopy(slot)
        mutate(slot)
        mutate(clone)
        ours, theirs = observe(slot), observe(clone)
        for unique in ("version", "stamp"):
            ours.pop(unique), theirs.pop(unique)
        assert ours == theirs


class TestCacheClone:
    def test_eviction_at_capacity_is_per_copy(self) -> None:
        cache = QueryCache(capacity=2)
        cache.add(("a",), 1)
        cache.add(("b",), 2)
        clone = copy.deepcopy(cache)
        cache.add(("c",), 3)  # evicts ("a",) from the original only
        assert [e.terms for e in clone] == [("a",), ("b",)]
        assert [e.terms for e in cache] == [("b",), ("c",)]
        assert (clone.latest_sequence, cache.latest_sequence) == (1, 2)
        clone.add(("d",), 4)
        assert [e.terms for e in clone] == [("b",), ("d",)]
        assert [e.sequence for e in clone] == [1, 2]

    def test_equal_sequences_on_diverged_copies_are_not_equal_stamps(self) -> None:
        """Sequence numbers restart per lineage: two copies that each
        took one, different, query agree on ``latest_sequence``.  The
        stamp — what replication compares — must tell them apart."""
        cache = QueryCache(capacity=4)
        cache.add(("a",), 1)
        clone = copy.deepcopy(cache)
        assert clone.content_stamp == cache.content_stamp
        cache.add(("b",), 2)
        clone.add(("c",), 3)
        assert clone.latest_sequence == cache.latest_sequence
        assert clone.content_stamp != cache.content_stamp

    def test_rebuilt_cache_draws_its_own_stamp(self) -> None:
        cache = QueryCache(capacity=4)
        cache.add(("a",), 1)
        rebuilt = QueryCache.from_state(4, [(("a",), 1, 0)], next_sequence=1)
        assert rebuilt.since(-1) == cache.since(-1)
        assert rebuilt.content_stamp != cache.content_stamp

    def test_empty_cache(self) -> None:
        clone = copy.deepcopy(QueryCache(capacity=5))
        assert (len(clone), clone.latest_sequence, clone.capacity) == (0, -1, 5)


class TestColumnarClone:
    def test_legacy_store_takes_the_generic_path(self) -> None:
        assert not hasattr(LegacyPostings, "__deepcopy__")
