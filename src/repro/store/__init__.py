"""repro.store: durable disk-backed posting storage (DESIGN.md §12).

A pluggable persistence layer behind the term-slot posting interface:
``SpriteConfig(store_backend="sqlite")`` swaps every indexing peer's
in-RAM postings for rows in a shared SQLite database (WAL, per-peer
connection lanes, optional Bloom front), while keeping rankings,
versions, and write-state fingerprints bit-identical to the default
in-RAM path.  On top of the store sit crash-consistent snapshots with
manifests and a recovery manager that lets a crashed indexing peer
reconcile only the delta against its last checkpoint instead of
resyncing everything.
"""

from ..config import STORE_BACKENDS
from .pool import ConnectionPool
from .recovery import RecoveryManager, RecoveryReport
from .runtime import StoreRuntime, build_store_runtime
from .snapshot import (
    PeerSnapshot,
    SnapshotManager,
    build_slot,
    restore_slots,
    slot_checksum,
)
from .sqlite_store import SqlitePostings, init_schema

__all__ = [
    "ConnectionPool",
    "PeerSnapshot",
    "RecoveryManager",
    "RecoveryReport",
    "STORE_BACKENDS",
    "SnapshotManager",
    "SqlitePostings",
    "StoreRuntime",
    "build_slot",
    "build_store_runtime",
    "init_schema",
    "restore_slots",
    "slot_checksum",
]
