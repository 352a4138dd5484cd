"""The peer-side learning poll, kept as the reference the tests compare
:meth:`~repro.core.indexer.IndexingProtocol.poll_batch` against.

Until the §3 closest-hash rule moved to the owner, every POLL_BATCH
carried the owner's whole index-term hash list (8 bytes a term) so that
the indexing peer could apply the rule itself and ship back only the
queries it selected.  :class:`PeerSideDedup` is that placement for a
learning round's poll: the same exchange, the request priced with the
hash list of every document it addresses (a document with an index term
at that peer), the reply answering per (document, term) — the queries
since that document's cursor that the rule selects with its hashes, the
one filter function both sides share (:meth:`_keep_closest`), run at the
peer before the reply is built.  Only *where* the rule runs differs, so
results, cursors, state and every other message must coincide; the
``peer_side_dedup`` row of ``tests/twins.py`` states the two byte totals
that differ.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.core.indexer import IndexingProtocol
from repro.core.metadata import CachedQuery
from repro.core.system import SpriteSystem
from repro.dht.messages import TERM_BYTES, Message, MessageKind, message


def addressed_hashes(documents: Sequence[Dict[str, int]], batch) -> int:
    """How many index-term hashes a peer-side rule needs at the peer
    polled for *batch*: every term of every document with a term there."""
    batch = set(batch)
    return sum(len(cursors) for cursors in documents if not batch.isdisjoint(cursors))


class PeerSideDedup(IndexingProtocol):
    """An indexing protocol whose peers apply the §3 rule to the poll."""

    def poll_batch(
        self,
        owner_id: int,
        documents: Sequence[Dict[str, int]],
        near: Sequence[int] = (),
    ) -> Tuple[Dict[Tuple[int, str], Tuple[List[CachedQuery], int]], Set[str], List[int]]:
        cursor_of = self._lowest_cursors(documents)
        located = self._locate(owner_id, cursor_of, absorb=True, near=near)
        hashes = [{t: self.term_hash(t) for t in cursors} for cursors in documents]
        delivered, failed = self._exchange(
            owner_id,
            located,
            (cursor_of, documents, hashes),
            self._hash_list_request,
            self._select_at_peer,
            self._per_document_batch,
        )
        results = {
            key: answer
            for per_document in delivered.values()
            for key, answer in per_document.items()
        }
        return results, set(failed), list(located[0])

    @staticmethod
    def _hash_list_request(src, dst, batch, hops, polled) -> Message:
        cursors_only = message(MessageKind.POLL_BATCH, src, dst, len(batch), hops=hops)
        return cursors_only._replace(
            size_bytes=cursors_only.size_bytes + TERM_BYTES * addressed_hashes(polled[1], batch)
        )

    def _select_at_peer(self, node, term, polled) -> Dict[Tuple[int, str], tuple]:
        cursor_of, documents, hashes = polled
        candidates, latest = self._serve_poll(node, term, cursor_of)
        answers = {}
        for index, cursors in enumerate(documents):
            if term not in cursors:
                continue
            cursor = cursors[term]
            if latest is None:
                answers[index, term] = [], cursor
                continue
            since = candidates[max(0, len(candidates) - (latest - cursor)):]
            answers[index, term] = self._keep_closest(term, (since, latest), hashes[index])
        return answers

    @classmethod
    def _per_document_batch(cls, src, dst, answers) -> Message:
        return cls._query_batch(
            src, dst, [answer for per_document in answers for answer in per_document.values()]
        )


def install_peer_side_dedup(system: SpriteSystem) -> SpriteSystem:
    """Make *system* poll through :class:`PeerSideDedup` — owners hold
    the one protocol object, so re-classing it switches every poll."""
    system.protocol.__class__ = PeerSideDedup
    return system
