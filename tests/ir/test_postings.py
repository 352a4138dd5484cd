"""Tests for the in-RAM posting store and its legacy reference."""

from __future__ import annotations

import copy
from math import sqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir.postings import RamPostings, posting_impact

from .legacy_postings import LegacyPostings


def top_impact(store) -> float:
    """The largest stored impact — the head of the impact order."""
    rows = store.impact_rows()
    return rows[0][3] if rows else 0.0


class TestPostingImpact:
    def test_matches_definition(self) -> None:
        assert posting_impact(4, 16) == (4 / 16) / sqrt(16)

    def test_degenerate_lengths_score_zero(self) -> None:
        assert posting_impact(3, 0) == 0.0
        assert posting_impact(3, -5) == 0.0


# The first id is the name the suite's recorded test ids (and the
# benchmark's layer table) still know the RAM store by.
@pytest.mark.parametrize(
    "make", [RamPostings, LegacyPostings], ids=["ColumnarPostings", "LegacyPostings"]
)
class TestStoreSemantics:
    """Both backends must expose identical dict-like semantics."""

    def test_insertion_order_preserved(self, make) -> None:
        store = make()
        for i, doc in enumerate(["c", "a", "b"]):
            store.add(doc, 10 + i, 1 + i, 100)
        assert [r[0] for r in store.rows()] == ["c", "a", "b"]

    def test_overwrite_keeps_position(self, make) -> None:
        store = make()
        store.add("x", 1, 1, 100)
        store.add("y", 2, 2, 100)
        store.add("x", 9, 9, 90)
        assert [r[0] for r in store.rows()] == ["x", "y"]
        assert store.lookup("x") == ("x", 9, 9, 90)
        assert len(store) == 2

    def test_remove_shifts_tail(self, make) -> None:
        store = make()
        for doc in ["a", "b", "c", "d"]:
            store.add(doc, 1, 1, 100)
        removed = store.remove("b")
        assert removed == ("b", 1, 1, 100)
        assert [r[0] for r in store.rows()] == ["a", "c", "d"]
        assert "b" not in store
        assert store.remove("b") is None

    def test_scoring_lookup_matches_posting_values(self, make) -> None:
        store = make()
        store.add("doc", 7, 3, 12)
        ntf, length = store.scoring_lookup("doc")
        assert ntf == 3 / 12
        assert length == 12
        assert store.scoring_lookup("ghost") is None

    def test_zero_length_document_scores_zero(self, make) -> None:
        store = make()
        store.add("doc", 7, 3, 0)
        ntf, __ = store.scoring_lookup("doc")
        assert ntf == 0.0
        assert top_impact(store) == 0.0

    def test_impact_rows_sorted_with_doc_id_tie_break(self, make) -> None:
        store = make()
        store.add("b", 1, 2, 100)  # impact 0.002
        store.add("a", 1, 2, 100)  # same impact, earlier id
        store.add("c", 1, 8, 100)  # impact 0.008
        assert [r[0] for r in store.impact_rows()] == ["c", "a", "b"]

    def test_max_impact_tracks_additions_and_removals(self, make) -> None:
        store = make()
        assert top_impact(store) == 0.0
        store.add("low", 1, 1, 100)
        store.add("high", 1, 50, 100)
        assert top_impact(store) == posting_impact(50, 100)
        # Removing the maximum must take its impact out of the column.
        store.remove("high")
        assert top_impact(store) == posting_impact(1, 100)
        store.remove("low")
        assert top_impact(store) == 0.0

    def test_max_impact_after_overwriting_the_maximum(self, make) -> None:
        store = make()
        store.add("a", 1, 40, 100)
        store.add("b", 1, 10, 100)
        store.add("a", 1, 5, 100)  # demote the maximum in place
        assert top_impact(store) == posting_impact(10, 100)

    def test_versions_are_unique_and_bump_on_mutation(self, make) -> None:
        store = make()
        seen = {store.version}
        store.add("a", 1, 1, 100)
        assert store.version not in seen
        seen.add(store.version)
        store.add("a", 1, 2, 100)  # overwrite also bumps
        assert store.version not in seen
        seen.add(store.version)
        store.remove("a")
        assert store.version not in seen

    def test_versions_globally_unique_across_stores(self, make) -> None:
        a, b = make(), make()
        a.add("doc", 1, 1, 100)
        b.add("doc", 1, 1, 100)
        assert a.version != b.version


def clamped(row):
    """The RAM store clamps lengths on ingest; compare modulo the clamp,
    which scoring treats identically."""
    return None if row is None else (*row[:3], max(0, row[3]))


def assert_equivalent(ram: RamPostings, legacy: LegacyPostings) -> None:
    assert list(ram.rows()) == [clamped(row) for row in legacy.rows()]
    assert len(ram) == len(legacy)
    assert top_impact(ram) == pytest.approx(top_impact(legacy))
    assert [r[0] for r in ram.impact_rows()] == [r[0] for r in legacy.impact_rows()]


class TestBackendEquivalence:
    """Differential: the two backends enumerate and aggregate
    identically under any sequence of adds, removes and deep copies —
    after a copy both sides of it keep mutating, the store's structural
    clone beside the reference's generic ``copy.deepcopy``."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "copy"]),
                st.booleans(),  # which copy the op lands on, once there are two
                st.sampled_from(["d0", "d1", "d2", "d3", "d4"]),
                st.integers(min_value=1, max_value=20),
                st.integers(min_value=-2, max_value=50),
            ),
            max_size=40,
        )
    )
    def test_same_rows_and_aggregates(self, ops) -> None:
        # pairs[i] = (store under test, reference); a copy appends a pair.
        pairs = [(RamPostings(), LegacyPostings())]
        for kind, on_latest, doc, tf, length in ops:
            ram, legacy = pairs[-1 if on_latest else 0]
            if kind == "add":
                ram.add(doc, 7, tf, length)
                legacy.add(doc, 7, tf, length)
            elif kind == "remove":
                assert ram.remove(doc) == clamped(legacy.remove(doc))
            else:
                ram_copy, legacy_copy = copy.deepcopy(ram), copy.deepcopy(legacy)
                # At the copy: same content, and the version says so.
                assert ram_copy.version == ram.version
                assert legacy_copy.version == legacy.version
                assert_equivalent(ram_copy, legacy_copy)
                assert list(ram_copy.rows()) == list(ram.rows())
                pairs.append((ram_copy, legacy_copy))
        # After it: every copy went its own way, exactly as its reference.
        for ram, legacy in pairs:
            assert_equivalent(ram, legacy)
