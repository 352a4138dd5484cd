"""Fixtures shared by the slot-level tests: an empty :class:`TermSlot`
on each posting store (``make_slot``)."""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.metadata import QueryCache, TermSlot
from repro.store import SqlitePostings, init_schema

from ..ir.legacy_postings import LegacyPostings


@pytest.fixture()
def conn(tmp_path):
    connection = sqlite3.connect(str(tmp_path / "postings.db"), isolation_level=None)
    init_schema(connection)
    yield connection
    connection.close()


@pytest.fixture(params=["columnar", "legacy", "sqlite"])
def make_slot(request, conn):
    """Factory of an empty slot on the parametrised backend, with a
    three-entry query cache so eviction is one ``add`` away."""
    slot_ids = iter(range(1, 100))

    def make() -> TermSlot:
        cache = QueryCache(capacity=3)
        if request.param == "sqlite":
            return TermSlot("term", cache, store=SqlitePostings(conn, next(slot_ids)))
        if request.param == "legacy":
            return TermSlot("term", cache, store=LegacyPostings())
        return TermSlot("term", cache)

    return make
