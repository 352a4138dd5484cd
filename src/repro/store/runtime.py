"""Store runtime: one database, slot allocation, and lifecycle.

A :class:`StoreRuntime` owns everything the SQLite backend shares across
term slots — the database file (in a managed temporary directory unless
the configuration pins one), the one connection every slot's rows go
through, the slot-id sequence partitioning the shared ``postings``
table, garbage-row reclamation for slots the simulation dropped, and
the :class:`~repro.store.snapshot.SnapshotManager` rooted next to the
database.

:func:`build_store_runtime` is the configuration-driven factory the
system constructor calls: it returns ``None`` for the default
``store_backend="memory"`` — the whole subsystem stays out of the way
unless explicitly switched on.
"""

from __future__ import annotations

import itertools
import sqlite3
import tempfile
import weakref
from pathlib import Path
from typing import Dict, List, Optional

from ..config import SpriteConfig
from .snapshot import SnapshotManager
from .sqlite_store import SqlitePostings, init_schema


class StoreRuntime:
    """Shared state of the SQLite posting backend.

    Parameters
    ----------
    store_dir:
        Directory for the database (and, by default, snapshots).  Empty
        string means a self-cleaning temporary directory — the safe
        default that keeps tests and ad-hoc runs from littering.
    snapshot_dir:
        Snapshot root; empty means ``<store_dir>/snapshots``.
    """

    def __init__(self, store_dir: str = "", snapshot_dir: str = "") -> None:
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
        # Autocommit: ``add_many`` opens its own transaction.  Durability
        # pragmas are relaxed (``synchronous=OFF``) because a crashed
        # peer is modelled by the snapshot layer, not the SQLite journal.
        self.conn = sqlite3.connect(
            str(self.db_path), isolation_level=None, cached_statements=512
        )
        self.conn.execute("PRAGMA journal_mode=WAL")
        self.conn.execute("PRAGMA synchronous=OFF")
        init_schema(self.conn)
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
        """A fresh posting store for a term slot hosted at *peer_id*
        (every peer's stores share the runtime's one connection)."""
        store = SqlitePostings(self.conn, self.allocate_slot_id(), runtime=self)
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
        while self._dead_slots:
            slot_id = self._dead_slots.pop()
            self.conn.execute("DELETE FROM postings WHERE slot = ?", (slot_id,))
            self.slots_retired += 1
            flushed += 1
        return flushed

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Rollup for the CLI and the benchmarks."""
        self.flush_retired()
        postings, live_slots = self.conn.execute(
            "SELECT COUNT(*), COUNT(DISTINCT slot) FROM postings"
        ).fetchone()
        page_count = self.conn.execute("PRAGMA page_count").fetchone()[0]
        page_size = self.conn.execute("PRAGMA page_size").fetchone()[0]
        return {
            "backend": "sqlite",
            "db_path": str(self.db_path),
            "db_bytes": page_count * page_size,
            "postings": postings,
            "live_slots": live_slots,
            "slots_created": self.slots_created,
            "slots_retired": self.slots_retired,
            "snapshots_saved": self.snapshots.saves,
            "snapshots_loaded": self.snapshots.loads,
        }

    def close(self) -> None:
        """Close the connection and clean the managed temp dir (if any)."""
        self.conn.close()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None


def build_store_runtime(config: SpriteConfig) -> Optional[StoreRuntime]:
    """Build the runtime a configuration asks for (``None`` = in-RAM)."""
    if config.store_backend == "memory":
        return None
    return StoreRuntime(store_dir=config.store_dir, snapshot_dir=config.snapshot_dir)
