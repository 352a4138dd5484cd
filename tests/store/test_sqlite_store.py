"""SqlitePostings must be bit-identical to the in-RAM backend.

The differential harness drives both stores through the same randomized
mutation stream and compares every observable after every operation —
the store is a persistence layer, so any divergence (enumeration order,
aggregate, float bit, version behaviour) is a bug by definition.
"""

from __future__ import annotations

import copy
import random
import sqlite3

import pytest

from repro.ir.postings import RamPostings
from repro.store import SqlitePostings, init_schema


@pytest.fixture()
def conn(tmp_path):
    connection = sqlite3.connect(
        str(tmp_path / "postings.db"), isolation_level=None
    )
    init_schema(connection)
    yield connection
    connection.close()


def _assert_equivalent(disk: SqlitePostings, ram: RamPostings) -> None:
    assert len(disk) == len(ram)
    assert list(disk.rows()) == list(ram.rows())
    assert disk.impact_rows() == ram.impact_rows()


class TestDifferential:
    def test_randomized_stream_matches_columnar(self, conn) -> None:
        rng = random.Random(17)
        disk = SqlitePostings(conn, slot_id=1)
        ram = RamPostings()
        docs = [f"doc-{i}" for i in range(30)]
        for step in range(400):
            doc = rng.choice(docs)
            if rng.random() < 0.7:
                tf = rng.randint(1, 9)
                length = rng.choice([0, 5, 10, 40, 100])
                owner = rng.randrange(1 << 70)  # wider than 64 bits
                disk.add(doc, owner, tf, length)
                ram.add(doc, owner, tf, length)
            else:
                assert disk.remove(doc) == ram.remove(doc)
            assert (doc in disk) == (doc in ram)
            assert disk.lookup(doc) == ram.lookup(doc)
            assert disk.scoring_lookup(doc) == ram.scoring_lookup(doc)
            if step % 25 == 0:
                _assert_equivalent(disk, ram)
        _assert_equivalent(disk, ram)

    def test_overwrite_keeps_enumeration_position(self, conn) -> None:
        disk = SqlitePostings(conn, slot_id=2)
        for i in range(4):
            disk.add(f"d{i}", 1, 1, 10)
        disk.add("d1", 2, 7, 20)  # overwrite must not move the row
        assert [row[0] for row in disk.rows()] == ["d0", "d1", "d2", "d3"]
        assert disk.lookup("d1") == ("d1", 2, 7, 20)

    def test_version_ticks_on_every_mutation(self, conn) -> None:
        disk = SqlitePostings(conn, slot_id=3)
        seen = [disk.version]
        disk.add("a", 1, 2, 10)
        seen.append(disk.version)
        disk.add("a", 1, 3, 10)
        seen.append(disk.version)
        disk.remove("a")
        seen.append(disk.version)
        assert seen == sorted(seen) and len(set(seen)) == len(seen)
        before = disk.version
        assert disk.lookup("a") is None  # reads never tick
        assert disk.version == before


class TestAddMany:
    def test_batch_applies_like_a_loop(self, conn) -> None:
        batched = SqlitePostings(conn, slot_id=4)
        looped = SqlitePostings(conn, slot_id=5)
        rows = [(f"d{i}", 9, i + 1, 30) for i in range(8)]
        assert batched.add_many(rows) == 8
        for row in rows:
            looped.add(*row)
        _assert_equivalent_pair = list(batched.rows()) == list(looped.rows())
        assert _assert_equivalent_pair
        assert batched.impact_rows() == looped.impact_rows()

    def test_failed_batch_rolls_back_completely(self, conn) -> None:
        store = SqlitePostings(conn, slot_id=6)
        store.add("keep", 1, 3, 12)
        before = (
            len(store),
            store.version,
            store.impact_rows(),
            list(store.rows()),
        )
        poisoned = [("new-a", 1, 2, 10), ("new-b", 1, 2, 10), object()]
        with pytest.raises(TypeError):
            store.add_many(poisoned)
        assert (
            len(store),
            store.version,
            store.impact_rows(),
            list(store.rows()),
        ) == before
        assert not conn.in_transaction
        # The store stays usable: the next batch lands normally.
        store.add_many([("new-a", 1, 2, 10)])
        assert [row[0] for row in store.rows()] == ["keep", "new-a"]


class TestDeepcopy:
    def test_clone_is_isolated_and_version_preserving(self, conn) -> None:
        original = SqlitePostings(conn, slot_id=7)
        original.add("x", 1, 2, 10)
        original.add("y", 2, 3, 15)
        clone = copy.deepcopy(original)
        assert clone.slot_id != original.slot_id
        assert list(clone.rows()) == list(original.rows())
        # Same content => same version (replica-freshness soundness).
        assert clone.version == original.version
        clone.add("z", 3, 1, 5)
        original.remove("x")
        assert [row[0] for row in original.rows()] == ["y"]
        assert [row[0] for row in clone.rows()] == ["x", "y", "z"]
        assert clone.version != original.version
