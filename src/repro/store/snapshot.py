"""Snapshots: crash-consistent checkpoints of a peer's term slots.

A snapshot of one indexing peer is two files under
``<root>/peer-<id>/``:

* ``snap-<n>.json`` — the data blob: every term slot the peer primarily
  holds, ordered by ascending slot version, each carrying its term, ring
  key, version, the query cache's exact state (entries plus the next
  sequence number), and the posting rows as plain integers;
* ``MANIFEST.json`` — the validity record: peer id, data file name, a
  SHA-256 of the blob, the peer's *global version* (max slot version),
  a per-term checksum of each slot's posting set, and a checksum over
  the distinct document ids (the doc-table digest).

Both files are written atomically (temp file + ``os.replace``) and the
previous manifest is rotated to ``MANIFEST.prev.json`` first, so a crash
mid-save can never destroy the last good checkpoint: loading verifies
the blob hash against the manifest and falls back to the previous
generation when the current one is torn or corrupt.

Restoration rebuilds slots through the normal mutation path — each row
re-drawn through the store's ``add`` — in ascending stored-version order
across *all* slots being restored, so the rebuilt system's global
version rank order matches the original build (the property the
differential fingerprints compare).

Slot payloads are duck-typed off :class:`~repro.core.metadata.TermSlot`;
the ``repro.core`` imports happen lazily inside the restore helpers to
keep this layer importable from anywhere.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

MANIFEST = "MANIFEST.json"
MANIFEST_PREV = "MANIFEST.prev.json"


def slot_checksum(rows: Iterable[Tuple[str, int, int, int]]) -> str:
    """Order-insensitive SHA-256 of a slot's posting set.

    Sorted by doc id before hashing, so an authoritative copy whose
    enumeration order drifted from the snapshot's (replica lineage)
    still matches when the *content* matches.
    """
    canon = sorted((d, int(o), int(t), int(l)) for d, o, t, l in rows)
    blob = json.dumps(canon, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class PeerSnapshot:
    """One loaded, hash-verified snapshot of a peer's slots."""

    def __init__(self, peer: int, manifest: Dict, slots: List[Dict]) -> None:
        self.peer = peer
        self.manifest = manifest
        self.slots = slots
        self.slot_checksums: Dict[str, str] = dict(manifest["slot_checksums"])
        self.global_version: int = int(manifest["global_version"])

    def __len__(self) -> int:
        return len(self.slots)


class SnapshotManager:
    """Saves, loads, and prunes per-peer snapshot generations."""

    def __init__(self, root: str | Path, keep: int = 2) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.root = Path(root)
        self.keep = keep
        self.saves = 0
        self.loads = 0
        self.fallbacks = 0

    def _peer_dir(self, peer_id: int) -> Path:
        return self.root / f"peer-{peer_id}"

    # -- save ---------------------------------------------------------------

    @staticmethod
    def _slot_payload(key: int, slot) -> Dict:
        cache = slot.cache
        return {
            "term": slot.term,
            "key": key,
            "version": slot.version,
            "cache_capacity": cache.capacity,
            "cache_next": cache.latest_sequence + 1,
            "cache": [[list(e.terms), e.query_hash, e.sequence] for e in cache],
            "postings": [
                [doc_id, owner, raw_tf, length]
                for doc_id, owner, raw_tf, length in slot._store.rows()
            ],
        }

    def save_peer(self, node) -> Optional[Path]:
        """Checkpoint every term slot in *node*'s primary store.

        Returns the manifest path, or ``None`` when the node holds no
        term slots (an empty checkpoint says nothing worth recovering).
        """
        from ..core.metadata import TermSlot

        slots = [
            (key, slot)
            for key, slot in node.store.items()
            if isinstance(slot, TermSlot)
        ]
        if not slots:
            return None
        slots.sort(key=lambda kv: kv[1].version)
        payloads = [self._slot_payload(key, slot) for key, slot in slots]

        peer_dir = self._peer_dir(node.node_id)
        peer_dir.mkdir(parents=True, exist_ok=True)
        existing = sorted(peer_dir.glob("snap-*.json"))
        number = 0
        if existing:
            number = max(int(p.stem.split("-")[1]) for p in existing) + 1
        data_name = f"snap-{number:06d}.json"

        blob = json.dumps(
            {"peer": node.node_id, "slots": payloads}, separators=(",", ":")
        ).encode("utf-8")
        self._atomic_write(peer_dir / data_name, blob)

        doc_ids = sorted(
            {row[0] for payload in payloads for row in payload["postings"]}
        )
        manifest = {
            "peer": node.node_id,
            "data_file": data_name,
            "data_sha256": hashlib.sha256(blob).hexdigest(),
            "global_version": max(p["version"] for p in payloads),
            "slot_count": len(payloads),
            "slot_checksums": {
                p["term"]: slot_checksum(p["postings"]) for p in payloads
            },
            "doc_checksum": hashlib.sha256(
                json.dumps(doc_ids, separators=(",", ":")).encode("utf-8")
            ).hexdigest(),
        }
        manifest_path = peer_dir / MANIFEST
        if manifest_path.exists():
            os.replace(manifest_path, peer_dir / MANIFEST_PREV)
        self._atomic_write(
            manifest_path, (json.dumps(manifest, indent=2) + "\n").encode("utf-8")
        )
        self._prune(peer_dir)
        self.saves += 1
        return manifest_path

    @staticmethod
    def _atomic_write(path: Path, blob: bytes) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_bytes(blob)
        os.replace(tmp, path)

    def _prune(self, peer_dir: Path) -> None:
        """Drop data files beyond ``keep``, never one a manifest names."""
        referenced = set()
        for name in (MANIFEST, MANIFEST_PREV):
            try:
                referenced.add(json.loads((peer_dir / name).read_text())["data_file"])
            except (OSError, ValueError, KeyError):
                continue
        candidates = sorted(peer_dir.glob("snap-*.json"), reverse=True)
        for stale in candidates[self.keep :]:
            if stale.name not in referenced:
                stale.unlink()

    # -- load ---------------------------------------------------------------

    def load_peer(self, peer_id: int) -> Optional[PeerSnapshot]:
        """The newest hash-valid snapshot for *peer_id*, falling back to
        the previous generation on a torn or corrupt current one;
        ``None`` when no valid checkpoint exists."""
        peer_dir = self._peer_dir(peer_id)
        for index, name in enumerate((MANIFEST, MANIFEST_PREV)):
            try:
                manifest = json.loads((peer_dir / name).read_text())
                blob = (peer_dir / manifest["data_file"]).read_bytes()
                if hashlib.sha256(blob).hexdigest() != manifest["data_sha256"]:
                    raise ValueError("data checksum mismatch")
                data = json.loads(blob)
                snapshot = PeerSnapshot(
                    peer=int(manifest["peer"]),
                    manifest=manifest,
                    slots=list(data["slots"]),
                )
            except (OSError, ValueError, KeyError):
                continue
            if index > 0:
                self.fallbacks += 1
            self.loads += 1
            return snapshot
        return None


# -- restoration --------------------------------------------------------------


def build_slot(slot_data: Dict, store=None):
    """Rebuild one :class:`TermSlot` from its snapshot payload.

    The query cache is restored exactly (entries and next sequence — the
    write-state fingerprint includes ``latest_sequence``); postings
    replay through the store's normal mutation path so aggregates and
    version ticks are the ones a live build would have produced.
    """
    from ..core.metadata import QueryCache, TermSlot

    cache = QueryCache.from_state(
        capacity=int(slot_data["cache_capacity"]),
        entries=[
            (tuple(terms), int(query_hash), int(sequence))
            for terms, query_hash, sequence in slot_data["cache"]
        ],
        next_sequence=int(slot_data["cache_next"]),
    )
    slot = TermSlot(term=slot_data["term"], cache=cache, store=store)
    rows = [
        (doc_id, int(owner), int(raw_tf), int(length))
        for doc_id, owner, raw_tf, length in slot_data["postings"]
    ]
    backing = slot._store
    add_many = getattr(backing, "add_many", None)
    if add_many is not None:
        add_many(rows)
    else:
        for row in rows:
            backing.add(*row)
    return slot


def restore_slots(
    ring,
    snapshots: Iterable[PeerSnapshot],
    store_factory: Optional[Callable[[int], object]] = None,
) -> List[Tuple[int, object]]:
    """Rebuild snapshot slots into their peers' primary stores.

    Slots across all given snapshots are replayed in ascending stored
    version order, preserving the system-wide version rank.  A slot is
    skipped when its peer is not live, its key is already present (an
    authoritative transferred copy wins over the checkpoint), or the
    live-membership oracle no longer places the key at that peer
    (placement moved while the peer was down; restoring would violate
    primary placement).  Returns the ``(peer_id, slot)`` pairs restored.
    """
    todo = []
    for snapshot in snapshots:
        for slot_data in snapshot.slots:
            todo.append((int(slot_data["version"]), snapshot.peer, slot_data))
    todo.sort(key=lambda item: item[0])
    restored: List[Tuple[int, object]] = []
    for __, peer_id, slot_data in todo:
        if not ring.is_live(peer_id):
            continue
        key = int(slot_data["key"])
        node = ring.node(peer_id)
        if key in node.store:
            continue
        if ring.successor_of(key) != peer_id:
            continue
        store = store_factory(peer_id) if store_factory is not None else None
        slot = build_slot(slot_data, store=store)
        node.put(key, slot)
        restored.append((peer_id, slot))
    return restored
