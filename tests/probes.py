"""Read-only probes the tests use to look at a system's state.

Nothing the system runs calls these, so they live beside the tests
rather than in ``src``: each reads the state the way the removed
accessor of the same name did.  :func:`counted` builds a document from
its term counts, with no text to analyze.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.metadata import PostingEntry
from repro.corpus import Document


def counted(doc_id: str, freqs: Mapping[str, int]) -> Document:
    """A document analyzed to exactly *freqs*, its terms in the
    mapping's order."""
    return Document(
        doc_id,
        "",
        _terms=tuple(freqs),
        _counts=array("I", list(freqs.values())),
        _length=sum(freqs.values()),
    )


def ids(ranked) -> List[str]:
    """A ranked list's document ids in rank order."""
    return [entry.doc_id for entry in ranked]


def scores(ranked) -> Dict[str, float]:
    """A ranked list's ``doc id -> score``."""
    return {entry.doc_id: entry.score for entry in ranked}


def indexed_df(protocol, term: str) -> int:
    """A term's current n'_k at its indexing peer (0 when unindexed)."""
    slot = protocol.slot_snapshot(term)
    return slot.indexed_document_frequency if slot is not None else 0


def result_cache_stats(protocol) -> Tuple[int, int, int]:
    """``(entries, hits, misses)`` over the live peers' result caches."""
    caches = [cache for __, cache in protocol.result_caches()]
    return (
        sum(len(c) for c in caches),
        sum(c.hits for c in caches),
        sum(c.misses for c in caches),
    )


def posting(slot, doc_id: str) -> Optional[PostingEntry]:
    """One posting of a slot, or ``None``."""
    row = slot._store.lookup(doc_id)
    return None if row is None else PostingEntry(*row)


def place(ring, key: int, value: object) -> int:
    """Put a payload straight at the node responsible for *key*, with no
    insertion traffic; returns that node's id."""
    node = ring.responsible_node(key)
    node.put(key, value)
    return node.node_id


def routing_snapshot(node) -> Tuple:
    """A node's whole routing state: successor, predecessor, successor
    list and finger table."""
    return (node.successor, node.predecessor, tuple(node.successor_list), tuple(node.fingers))
