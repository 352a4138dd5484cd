"""The Bloom front: probabilistic semantics and measured benefit.

A Bloom negative must be definitive (no false negatives, ever); false
positives only cost one point read.  The false-positive rate is checked
against a generous multiple of the configured error rate — it is a
sanity gate on the wiring (capacity, double hashing, rebuild), not a
statistical test.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.store import SqlitePostings, init_schema


@pytest.fixture()
def conn(tmp_path):
    connection = sqlite3.connect(
        str(tmp_path / "postings.db"), isolation_level=None
    )
    init_schema(connection)
    yield connection
    connection.close()


@pytest.fixture()
def selects(conn):
    """Every SELECT the connection really executes, as SQLite reports
    them — the round trips the Bloom front exists to avoid."""
    seen = []
    conn.set_trace_callback(
        lambda sql: seen.append(sql) if sql.startswith("SELECT") else None
    )
    yield seen
    conn.set_trace_callback(None)


class TestBloomFront:
    def test_no_false_negatives(self, conn) -> None:
        store = SqlitePostings(conn, slot_id=1, bloom_capacity=64)
        docs = [f"doc-{i}" for i in range(200)]  # forces rebuilds too
        for doc in docs:
            store.add(doc, 1, 2, 10)
        for doc in docs:
            assert doc in store
            assert store.lookup(doc) is not None

    def test_false_positive_rate_sane(self, conn, selects) -> None:
        store = SqlitePostings(
            conn, slot_id=2, bloom_capacity=300, bloom_error_rate=0.01
        )
        for i in range(250):
            store.add(f"present-{i}", 1, 2, 10)
        selects.clear()  # count only the absent probes below
        absent = [f"absent-{i}" for i in range(1000)]
        for doc in absent:
            assert doc not in store
        # A Bloom negative answers without SQL, so every SELECT here is
        # a false positive.  1% configured; 5x margin keeps the gate
        # deterministic-friendly.
        assert len(selects) / len(absent) < 0.05

    def test_insert_skips_point_reads_for_new_docs(self, conn, selects) -> None:
        store = SqlitePostings(conn, slot_id=3, bloom_capacity=300)
        for i in range(100):
            store.add(f"doc-{i}", 1, 2, 10)
        # Nearly every first-time insert skips the existence SELECT.
        assert len(selects) <= 5

    def test_rebuild_grows_capacity_and_stays_correct(self, conn) -> None:
        store = SqlitePostings(conn, slot_id=4, bloom_capacity=32)
        for i in range(100):
            store.add(f"doc-{i}", 1, 2, 10)
        # Capacity only changes in a rebuild, and each one doubles it.
        assert store.bloom is not None and store.bloom.capacity >= 64
        for i in range(100):
            assert f"doc-{i}" in store

    def test_removal_keeps_filter_over_approximate(self, conn) -> None:
        store = SqlitePostings(conn, slot_id=5, bloom_capacity=64)
        store.add("gone", 1, 2, 10)
        assert store.remove("gone") is not None
        # The filter may still claim "gone" (no deletions), but the
        # store's answer must be the truth.
        assert "gone" not in store
        assert store.lookup("gone") is None

    def test_disabled_bloom_means_plain_sql(self, conn, selects) -> None:
        store = SqlitePostings(conn, slot_id=6, bloom_capacity=0)
        assert store.bloom is None
        store.add("d", 1, 2, 10)
        assert "nope" not in store
        # The insert's existence probe and the absent probe both hit SQL.
        assert len(selects) == 2
