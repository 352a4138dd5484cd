"""Snapshot round trips, crash-mid-batch consistency, torn manifests.

The round-trip property is the tentpole guarantee: any publish/unpublish
stream, checkpointed and reloaded into a fresh ring, reproduces the
write-state fingerprint's slot part bit for bit — postings, aggregates,
query-cache cursor, and the system-wide version *rank* order.
"""

from __future__ import annotations

import json
import sqlite3
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ChordConfig, SpriteConfig
from repro.core.system import SpriteSystem
from repro.corpus import Corpus, Document, Query
from repro.dht import ChordRing
from repro.store import (
    SnapshotManager,
    SqlitePostings,
    StoreRuntime,
    build_slot,
    init_schema,
    restore_slots,
)
from repro.store.snapshot import MANIFEST

from ..twins import write_state_fingerprint

_DOC_TEXTS = {
    "doc-a": "chord overlay routing peer network lookup finger table",
    "doc-b": "retrieval ranking precision recall peer index inverted",
    "doc-c": "learning query tuning index peer progressive selective",
    "doc-d": "zipf distribution terms corpus frequency peer vocabulary",
    "doc-e": "replication successor failure churn peer heartbeat replica",
}

_CHORD = dict(num_peers=8, id_bits=32, successor_list_size=4, seed=11)


def _fresh_system() -> SpriteSystem:
    corpus = Corpus(
        Document(doc_id=doc_id, text=text) for doc_id, text in _DOC_TEXTS.items()
    )
    return SpriteSystem(
        corpus,
        sprite_config=SpriteConfig(
            initial_terms=3,
            terms_per_iteration=2,
            learning_iterations=1,
            max_index_terms=5,
            query_cache_size=50,
            assumed_corpus_size=100,
            store_backend="sqlite",
        ),
        chord_config=ChordConfig(**_CHORD),
    )


class TestRoundTripProperty:
    @given(
        ops=st.lists(
            st.sampled_from(sorted(_DOC_TEXTS)), min_size=1, max_size=14
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_snapshot_reload_reproduces_fingerprint(self, ops) -> None:
        system = _fresh_system()
        runtime = system.store_runtime
        assert runtime is not None
        try:
            shared = set()
            for doc_id in ops:  # toggle: share on first sight, withdraw next
                if doc_id in shared:
                    system.bulk_unshare([doc_id])
                    shared.discard(doc_id)
                else:
                    system.bulk_share([system.corpus.get(doc_id)])
                    shared.add(doc_id)
            system.register_queries(
                [Query("sq1", ("peer", "index")), Query("sq2", ("chord",))]
            )
            original = write_state_fingerprint(system)

            for node_id in system.ring.live_ids:
                runtime.snapshots.save_peer(system.ring.node(node_id))

            rebuilt_ring = ChordRing(ChordConfig(**_CHORD))
            rebuilt_runtime = StoreRuntime()
            try:
                snapshots = [
                    snap
                    for snap in (
                        runtime.snapshots.load_peer(node_id)
                        for node_id in rebuilt_ring.live_ids
                    )
                    if snap is not None
                ]
                restore_slots(
                    rebuilt_ring,
                    snapshots,
                    store_factory=rebuilt_runtime.new_postings,
                )
                restored = write_state_fingerprint(
                    SimpleNamespace(ring=rebuilt_ring, owners={})
                )
                assert restored["slots"] == original["slots"]
                assert restored["caches"] == original["caches"]
                assert restored["version_rank"] == original["version_rank"]
            finally:
                rebuilt_runtime.close()
        finally:
            runtime.close()


class TestCrashMidBatch:
    def test_recovery_restores_the_checkpoint(self, tmp_path) -> None:
        conn = sqlite3.connect(str(tmp_path / "p.db"), isolation_level=None)
        init_schema(conn)
        store = SqlitePostings(conn, slot_id=1)
        from repro.core.metadata import TermSlot

        slot = TermSlot("alpha", store=store)
        for i in range(5):
            store.add(f"doc-{i}", 3, i + 1, 20)
        checkpoint_rows = list(store.rows())

        manager = SnapshotManager(tmp_path / "snaps")
        node = SimpleNamespace(node_id=7, store={4242: slot})
        assert manager.save_peer(node) is not None

        # The batch dies mid-flight: the live store must roll back...
        poisoned = [("late-a", 3, 2, 20), ("late-b", 3, 2, 20), object()]
        with pytest.raises(TypeError):
            store.add_many(poisoned)
        assert list(store.rows()) == checkpoint_rows

        # ...and a peer restarted from disk sees exactly the checkpoint.
        snapshot = manager.load_peer(7)
        assert snapshot is not None and len(snapshot) == 1
        rebuilt = build_slot(snapshot.slots[0])
        assert list(rebuilt._store.rows()) == checkpoint_rows
        assert rebuilt._store.impact_rows() == store.impact_rows()
        assert rebuilt.cache.latest_sequence == slot.cache.latest_sequence
        conn.close()


class TestTornWrites:
    def _slot(self, conn, slot_id, docs):
        from repro.core.metadata import TermSlot

        store = SqlitePostings(conn, slot_id=slot_id)
        slot = TermSlot("beta", store=store)
        for doc in docs:
            store.add(doc, 1, 2, 10)
        return slot

    def test_corrupt_manifest_falls_back_a_generation(self, tmp_path) -> None:
        conn = sqlite3.connect(str(tmp_path / "p.db"), isolation_level=None)
        init_schema(conn)
        slot = self._slot(conn, 1, ["one"])
        manager = SnapshotManager(tmp_path / "snaps")
        node = SimpleNamespace(node_id=9, store={1: slot})
        manager.save_peer(node)
        first_rows = list(slot._store.rows())
        slot._store.add("two", 1, 2, 10)
        manager.save_peer(node)

        manifest = tmp_path / "snaps" / "peer-9" / MANIFEST
        manifest.write_text("{ torn mid-write")
        snapshot = manager.load_peer(9)
        assert snapshot is not None
        assert manager.fallbacks == 1
        assert [
            (doc, int(owner), tf, length)
            for doc, owner, tf, length in snapshot.slots[0]["postings"]
        ] == first_rows
        conn.close()

    def test_corrupt_blob_falls_back_a_generation(self, tmp_path) -> None:
        conn = sqlite3.connect(str(tmp_path / "p.db"), isolation_level=None)
        init_schema(conn)
        slot = self._slot(conn, 1, ["one"])
        manager = SnapshotManager(tmp_path / "snaps")
        node = SimpleNamespace(node_id=5, store={1: slot})
        manager.save_peer(node)
        slot._store.add("two", 1, 2, 10)
        manager.save_peer(node)

        peer_dir = tmp_path / "snaps" / "peer-5"
        current = json.loads((peer_dir / MANIFEST).read_text())["data_file"]
        (peer_dir / current).write_bytes(b"garbage")
        snapshot = manager.load_peer(5)
        assert snapshot is not None
        assert manager.fallbacks == 1
        assert len(snapshot.slots[0]["postings"]) == 1  # the older generation
        conn.close()

    def test_missing_snapshot_returns_none(self, tmp_path) -> None:
        manager = SnapshotManager(tmp_path / "snaps")
        assert manager.load_peer(12345) is None
