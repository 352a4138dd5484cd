"""Store runtime: one database, slot allocation, and lifecycle.

A :class:`StoreRuntime` owns everything the SQLite backend shares across
term slots — the database file (in a managed temporary directory unless
the configuration pins one), the per-peer :class:`ConnectionPool`, the
slot-id sequence partitioning the shared ``postings`` table, garbage-row
reclamation for slots the simulation dropped, and the
:class:`~repro.store.snapshot.SnapshotManager` rooted next to the
database.

:func:`build_store_runtime` is the configuration-driven factory the
system constructor calls: it returns ``None`` for the default
``store_backend="memory"`` — the whole subsystem stays out of the way
unless explicitly switched on.
"""

from __future__ import annotations

import itertools
import tempfile
import weakref
from pathlib import Path
from typing import Dict, List, Optional

from ..config import SpriteConfig
from .pool import ConnectionPool
from .snapshot import SnapshotManager
from .sqlite_store import SqlitePostings, init_schema

#: Default expected docs per slot for the fronting Bloom filter; slots
#: that outgrow it rebuild at double capacity.
DEFAULT_BLOOM_CAPACITY = 64


class StoreRuntime:
    """Shared state of the SQLite posting backend.

    Parameters
    ----------
    store_dir:
        Directory for the database (and, by default, snapshots).  Empty
        string means a self-cleaning temporary directory — the safe
        default that keeps tests and ad-hoc runs from littering.
    bloom / bloom_capacity / bloom_error_rate:
        The Bloom front for point lookups (``bloom=False`` disables it).
    snapshot_dir:
        Snapshot root; empty means ``<store_dir>/snapshots``.
    """

    def __init__(
        self,
        store_dir: str = "",
        bloom: bool = True,
        bloom_capacity: int = DEFAULT_BLOOM_CAPACITY,
        bloom_error_rate: float = 0.01,
        snapshot_dir: str = "",
    ) -> None:
        if store_dir:
            self._tmp = None
            self.root = Path(store_dir)
            self.root.mkdir(parents=True, exist_ok=True)
        else:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-store-")
            self.root = Path(self._tmp.name)
        self.db_path = self.root / "postings.db"
        # The database is the live working set — the durable artifact is
        # the snapshot tree.  A fresh runtime therefore starts a fresh
        # database; recovery goes through SnapshotManager, never through
        # a stale db file (whose slot ids a new run would collide with).
        for leftover in (
            self.db_path,
            self.db_path.with_suffix(".db-wal"),
            self.db_path.with_suffix(".db-shm"),
            self.db_path.with_suffix(".db-journal"),
        ):
            leftover.unlink(missing_ok=True)
        self.pool = ConnectionPool(self.db_path)
        init_schema(self.pool.connection_for(0))
        self.bloom = bloom
        self.bloom_capacity = bloom_capacity
        self.bloom_error_rate = bloom_error_rate
        snapshot_root = Path(snapshot_dir) if snapshot_dir else self.root / "snapshots"
        self.snapshots = SnapshotManager(snapshot_root)
        self._slot_ids = itertools.count(1)
        self._dead_slots: List[int] = []
        self.slots_created = 0
        self.slots_retired = 0

    # -- slot lifecycle ------------------------------------------------------

    def allocate_slot_id(self) -> int:
        return next(self._slot_ids)

    def new_postings(self, peer_id: int) -> SqlitePostings:
        """A fresh posting store for a term slot hosted at *peer_id*,
        on that peer's connection lane."""
        store = SqlitePostings(
            self.pool.connection_for(peer_id),
            self.allocate_slot_id(),
            runtime=self,
            bloom_capacity=self.bloom_capacity if self.bloom else 0,
            bloom_error_rate=self.bloom_error_rate,
        )
        self.slots_created += 1
        return store

    def register(self, store: SqlitePostings) -> None:
        """Track a store for garbage-row reclamation: when the Python
        object is collected (slot dropped, replica overwritten), its
        rows are queued for deletion and flushed lazily."""
        weakref.finalize(store, self._dead_slots.append, store.slot_id)

    def flush_retired(self) -> int:
        """Delete rows of collected stores; returns slots reclaimed."""
        flushed = 0
        conn = self.pool.connection_for(0)
        while self._dead_slots:
            slot_id = self._dead_slots.pop()
            conn.execute("DELETE FROM postings WHERE slot = ?", (slot_id,))
            self.slots_retired += 1
            flushed += 1
        return flushed

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Rollup for the CLI and the benchmarks."""
        self.flush_retired()
        conn = self.pool.connection_for(0)
        postings, live_slots = conn.execute(
            "SELECT COUNT(*), COUNT(DISTINCT slot) FROM postings"
        ).fetchone()
        page_count = conn.execute("PRAGMA page_count").fetchone()[0]
        page_size = conn.execute("PRAGMA page_size").fetchone()[0]
        return {
            "backend": "sqlite",
            "db_path": str(self.db_path),
            "db_bytes": page_count * page_size,
            "postings": postings,
            "live_slots": live_slots,
            "slots_created": self.slots_created,
            "slots_retired": self.slots_retired,
            "bloom": self.bloom,
            "snapshots_saved": self.snapshots.saves,
            "snapshots_loaded": self.snapshots.loads,
            **self.pool.stats(),
        }

    def close(self) -> None:
        """Close connections and clean the managed temp dir (if any)."""
        self.pool.close_all()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None


def build_store_runtime(config: SpriteConfig) -> Optional[StoreRuntime]:
    """Build the runtime a configuration asks for (``None`` = in-RAM)."""
    if config.store_backend == "memory":
        return None
    return StoreRuntime(
        store_dir=config.store_dir,
        bloom=config.store_bloom,
        snapshot_dir=config.snapshot_dir,
    )
