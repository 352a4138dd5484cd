"""A modified slot's diff rebuilds the list the querying peer holds.

Once one of its versions has been shipped, a slot records its last
``SHIPPED_MUTATIONS`` mutations, and ``TermSlot.ship`` answers a peer
holding a version the record reaches back to with what changed since —
withdrawn doc ids, then rows added or overwritten — when that is smaller
than the list.  The property, on every posting store: over drawn add /
overwrite / remove / re-add / batch / ship sequences, each querying
peer's copy, patched by every answer it gets, equals the slot's rows in
order and field by field; no answer is larger than the whole list; the
record never exceeds its bound and exists only once the slot has been
shipped; a structural clone records nothing.

Tier-1 runs a small fixed budget.  CI's ``scenario-check`` job draws
more: ``SLOT_DIFF_PROFILE=slot-diff-drawn python -m pytest
tests/core/test_slot_diff.py``.
"""

from __future__ import annotations

import copy
import os
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metadata import SHIPPED_MUTATIONS, PostingEntry, TermSlot
from repro.store import SqlitePostings, init_schema

from ..ir.legacy_postings import LegacyPostings

settings.register_profile(
    "slot-diff-fixed", max_examples=40, derandomize=True, deadline=None, database=None
)
settings.register_profile("slot-diff-drawn", max_examples=200, deadline=None, database=None)

DOCS = [f"d{i}" for i in range(6)]
ROW = st.tuples(
    st.sampled_from(DOCS), st.integers(1, 3), st.integers(1, 9), st.integers(-2, 90)
)
SHIP = st.tuples(st.just("ship"), st.integers(0, 2))
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), ROW),
        st.tuples(st.just("remove"), st.sampled_from(DOCS)),
        st.tuples(st.just("batch"), st.lists(ROW, min_size=1, max_size=4)),
        SHIP,
        SHIP,
    ),
    min_size=8,
    max_size=60,
)


def posting(doc_id, owner, tf, length) -> PostingEntry:
    return PostingEntry(doc_id=doc_id, owner_peer=owner, raw_tf=tf, doc_length=length)


def patched(rows, diff):
    """A copy of *rows* patched by *diff* the way a querying peer does."""
    withdrawn, changed = diff
    held = {row[0]: row for row in rows}
    for doc_id in withdrawn:
        del held[doc_id]
    held.update((row[0], row) for row in changed)
    return list(held.values())


class Querier:
    """One querying peer's held version and copy of the slot's list."""

    def __init__(self) -> None:
        self.version = None
        self.rows = None

    def fetch(self, slot: TermSlot):
        """Ask *slot*, naming the held version; returns the diff it
        shipped, or ``None`` for the whole list or a not-modified answer."""
        diff = None
        if self.version != slot.version:
            diff = slot.ship(self.version)
            if diff is None:
                self.rows = list(slot.rows())
            else:
                assert len(diff[0]) + len(diff[1]) < slot.indexed_document_frequency
                self.rows = patched(self.rows, diff)
            self.version = slot.version
        assert self.rows == list(slot.rows())
        return diff


def run_ops(slot: TermSlot, base: int, ops) -> None:
    """*base* postings no op touches (they make a diff worth sending),
    then *ops*."""
    for i in range(base):
        slot.add_posting(posting(f"base{i}", 1, 2, 30))
    queriers = [Querier() for __ in range(3)]
    shipped = False
    for kind, arg in ops:
        if kind == "add":
            slot.add_posting(posting(*arg))
        elif kind == "remove":
            slot.remove_posting(arg)
        elif kind == "batch":
            slot.add_postings([posting(*row) for row in arg])
        else:
            if queriers[arg].version != slot.version:
                shipped = True
            queriers[arg].fetch(slot)
        mutations = slot.mutations
        assert (mutations is not None) == shipped
        assert mutations is None or len(mutations) <= SHIPPED_MUTATIONS
    clone = copy.deepcopy(slot)
    assert clone.mutations is None and list(clone.rows()) == list(slot.rows())


@pytest.fixture(scope="module", params=["ram", "legacy", "sqlite"])
def store(request):
    """A factory of empty stores of one kind (each call a fresh store)."""
    if request.param == "ram":
        yield lambda: None
    elif request.param == "legacy":
        yield LegacyPostings
    else:
        conn = sqlite3.connect(":memory:", isolation_level=None)
        init_schema(conn)
        ids = iter(range(1, 1 << 20))
        yield lambda: SqlitePostings(conn, next(ids), bloom_capacity=4)
        conn.close()


@settings(settings.get_profile(os.environ.get("SLOT_DIFF_PROFILE", "slot-diff-fixed")))
@given(base=st.integers(0, 12), ops=OPS)
def test_every_answer_rebuilds_the_list(store, base, ops) -> None:
    run_ops(TermSlot("term", store=store()), base, ops)


def filled(store, count: int) -> TermSlot:
    slot = TermSlot("term", store=store())
    for i in range(count):
        slot.add_posting(posting(f"d{i}", 1, 2, 30 + i))
    return slot


class TestWhatADiffCarries:
    def test_withdrawals_then_overwrites_in_place_and_readds_at_the_end(self, store) -> None:
        slot = filled(store, 6)
        querier = Querier()
        assert querier.fetch(slot) is None
        slot.add_posting(posting("d1", 2, 5, 70))
        slot.remove_posting("d2")
        slot.remove_posting("d3")
        slot.add_posting(posting("d3", 3, 4, 40))
        slot.add_posting(posting("d9", 1, 1, 0))
        slot.remove_posting("d9")
        assert querier.fetch(slot) == (
            ["d2", "d3"], [("d1", 2, 5, 70), ("d3", 3, 4, 40)]
        )
        assert [row[0] for row in querier.rows] == ["d0", "d1", "d4", "d5", "d3"]

    def test_a_version_older_than_the_record_gets_the_whole_list(self, store) -> None:
        slot = filled(store, 20)
        stale, recent = Querier(), Querier()
        stale.fetch(slot)
        slot.add_posting(posting("new0", 1, 1, 10))
        recent.fetch(slot)
        for i in range(1, SHIPPED_MUTATIONS + 1):
            slot.add_posting(posting(f"new{i}", 1, 1, 10))
        assert len(slot.mutations) == SHIPPED_MUTATIONS
        assert stale.fetch(slot) is None
        assert recent.fetch(slot) == ([], [(f"new{i}", 1, 1, 10) for i in range(1, 9)])

    def test_a_diff_no_smaller_than_the_list_is_not_sent(self, store) -> None:
        slot = filled(store, 2)
        querier = Querier()
        querier.fetch(slot)
        slot.add_posting(posting("d0", 4, 4, 4))
        slot.add_posting(posting("d1", 4, 4, 4))
        assert querier.fetch(slot) is None

    def test_only_a_shipped_slot_records_and_a_clone_starts_over(self, store) -> None:
        slot = filled(store, 4)
        assert slot.mutations is None
        querier = Querier()
        querier.fetch(slot)
        assert slot.mutations == ()  # shipped, not mutated since: no container
        slot.remove_posting("d0")
        assert len(slot.mutations) == 1
        clone = copy.deepcopy(slot)
        assert clone.mutations is None
        clone.remove_posting("d1")
        assert clone.mutations is None
        assert querier.fetch(clone) is None and clone.mutations == ()
