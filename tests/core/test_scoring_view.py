"""The per-version columnar scoring view of a term slot.

``TermSlot.scoring_view()`` is what the query executor scores from:
``[doc ids, normalized term frequencies, norms]`` as three flat lists in
publish order, built from ``store.rows()`` once per store *version*.
Pinned here on every posting store (``make_slot``: columnar, the seed
reference model, SQLite): the view agrees with the rows, it is rebuilt
after each kind of write and by nothing else, and a replicated slot
starts without one.
"""

from __future__ import annotations

import copy
from math import inf, sqrt

from repro.core.metadata import PostingEntry, TermSlot


def entry(doc: str, tf: int, length: int = 100) -> PostingEntry:
    return PostingEntry(doc_id=doc, owner_peer=7, raw_tf=tf, doc_length=length)


def populate(slot: TermSlot) -> TermSlot:
    """Four postings, one of a zero-length document."""
    slot.add_posting(entry("d0", 3, 48))
    slot.add_posting(entry("empty", 0, 0))
    slot.add_posting(entry("d1", 9, 7))
    slot.add_posting(entry("d2", 1, 1000))
    return slot


def expected_view(slot: TermSlot):
    """The view, column by column, straight off ``store.rows()``."""
    rows = list(slot._store.rows())
    return [
        [doc_id for doc_id, __, __, __ in rows],
        [tf / length if length > 0 else 0.0 for __, __, tf, length in rows],
        [sqrt(length) if length > 0 else inf for __, __, __, length in rows],
    ]


def count_row_scans(slot: TermSlot):
    """Count, in ``[0]`` of the returned list, the ``store.rows()`` scans
    *slot* makes from here on — each one is a rebuild of some view."""
    scans = [0]
    rows = slot._store.rows

    def counting():
        scans[0] += 1
        return rows()

    slot._store.rows = counting
    return scans


class TestAgreesWithTheStore:
    def test_columns_are_the_rows(self, make_slot) -> None:
        slot = populate(make_slot())
        doc_ids, ntfs, norms = slot.scoring_view()
        assert doc_ids == ["d0", "empty", "d1", "d2"]
        assert ntfs == [3 / 48, 0.0, 9 / 7, 1 / 1000]
        assert norms == [sqrt(48), inf, sqrt(7), sqrt(1000)]
        assert slot.scoring_view() == expected_view(slot)
        assert ntfs == [e.normalized_tf for e in slot.entries()]

    def test_a_zero_length_document_scores_zero(self, make_slot) -> None:
        slot = populate(make_slot())
        doc_ids, ntfs, norms = slot.scoring_view()
        at = doc_ids.index("empty")
        # Whatever the other terms of a query added to its dot product.
        assert (ntfs[at], 12.5 / norms[at]) == (0.0, 0.0)

    def test_flat_lists_of_strings_and_floats(self, make_slot) -> None:
        view = populate(make_slot()).scoring_view()
        assert [type(column) for column in view] == [list, list, list]
        assert {type(x) for x in view[0]} == {str}
        assert {type(x) for column in view[1:] for x in column} == {float}

    def test_an_empty_slot_has_an_empty_view(self, make_slot) -> None:
        assert make_slot().scoring_view() == [[], [], []]


class TestRebuiltPerVersion:
    def test_rebuilt_after_each_kind_of_write(self, make_slot) -> None:
        slot = populate(make_slot())
        writes = [
            lambda: slot.add_posting(entry("d3", 4, 81)),  # add
            lambda: slot.add_posting(entry("d1", 2, 9)),  # overwrite in place
            lambda: slot.remove_posting("d0"),  # remove
            lambda: slot.add_postings([entry("d4", 1, 5), entry("d5", 2, 6)]),
        ]
        view = slot.scoring_view()
        for write in writes:
            write()
            rebuilt = slot.scoring_view()
            assert rebuilt is not view
            assert rebuilt == expected_view(slot)
            view = rebuilt
        assert view[0] == ["empty", "d1", "d2", "d3", "d4", "d5"]
        assert view[1][1] == 2 / 9  # the overwrite kept d1's position

    def test_and_never_otherwise(self, make_slot) -> None:
        slot = populate(make_slot())
        view = slot.scoring_view()
        scans = count_row_scans(slot)
        for __ in range(3):
            assert slot.scoring_view() is view
        slot.has_posting("d1"), slot.get_posting("d1"), slot.get_posting("nope")
        slot.indexed_document_frequency, slot.version, slot.replica_stamp
        slot.cache.add(("term", "other"), query_hash=77)
        assert slot.remove_posting("nope") is None  # removed nothing: no new version
        assert slot.scoring_view() is view
        assert scans[0] == 0
        # The entry view is built from the rows too — by its own scan,
        # which leaves the scoring view alone.
        slot.entries(), slot.entries()
        assert scans[0] == 1
        assert slot.scoring_view() is view
        # A write alone rebuilds nothing; the next read does, once.
        slot.add_posting(entry("d9", 1, 4))
        assert scans[0] == 1
        assert slot.scoring_view() is not view
        slot.scoring_view()
        assert scans[0] == 2


class TestReplicatedSlot:
    def test_a_copy_has_no_view_until_first_read(self, make_slot) -> None:
        slot = populate(make_slot())
        view = slot.scoring_view()  # warm on the original
        clone = copy.deepcopy(slot)
        assert clone._scoring_view == []
        assert clone._scoring_version != clone.version
        built = clone.scoring_view()
        assert built == view
        assert all(mine is not theirs for mine, theirs in zip(built, view))
        assert slot.scoring_view() is view  # copying perturbed nothing
