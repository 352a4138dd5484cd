"""Chord DHT substrate: ring, nodes, routing, replication."""

from .hashing import IdSpace, md5_hash, recursive_finger_steps
from .messages import (
    ADDRESS_BYTES,
    ALL_KINDS,
    Message,
    MessageKind,
    POSTING_BYTES,
    QUERY_HEADER_BYTES,
    TERM_BYTES,
)
from .node import ChordNode
from .replication import ReplicationManager
from .ring import ChordRing, LookupResult, ring_label
from .route_cache import RouteCache
from .stats import KindStats, NetworkStats

__all__ = [
    "ADDRESS_BYTES",
    "ALL_KINDS",
    "ChordNode",
    "ChordRing",
    "IdSpace",
    "KindStats",
    "LookupResult",
    "Message",
    "MessageKind",
    "NetworkStats",
    "POSTING_BYTES",
    "QUERY_HEADER_BYTES",
    "ReplicationManager",
    "RouteCache",
    "TERM_BYTES",
    "md5_hash",
    "recursive_finger_steps",
    "ring_label",
]
