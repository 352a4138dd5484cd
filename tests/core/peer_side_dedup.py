"""The peer-side learning poll, kept as the reference the tests compare
:meth:`~repro.core.indexer.IndexingProtocol.poll_batch` against.

Until the §3 closest-hash rule moved to the owner, every POLL_BATCH
carried the owner's whole index-term hash list (8 bytes a term) so that
the indexing peer could apply the rule itself and ship back only the
queries it selected.  :class:`PeerSideDedup` is that placement: the same
exchange, the request priced with the hash list, the rule — the one
filter function both sides share, :meth:`_keep_closest` — run at the
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


class PeerSideDedup(IndexingProtocol):
    """An indexing protocol whose peers apply the §3 rule to the poll."""

    def poll_batch(
        self,
        owner_id: int,
        term_cursors: Sequence[Tuple[str, int]],
        index_term_hashes: Dict[str, int],
    ) -> Tuple[Dict[str, Tuple[List[CachedQuery], int]], Set[str]]:
        cursor_of = dict(term_cursors)
        results, failed = self._exchange(
            owner_id,
            self._locate(owner_id, cursor_of, absorb=True),
            (cursor_of, index_term_hashes),
            self._hash_list_request,
            self._select_at_peer,
            self._query_batch,
        )
        return results, set(failed)

    @staticmethod
    def _hash_list_request(src, dst, batch, hops, polled) -> Message:
        cursors_only = message(MessageKind.POLL_BATCH, src, dst, len(batch), hops=hops)
        return cursors_only._replace(
            size_bytes=cursors_only.size_bytes + TERM_BYTES * len(polled[1])
        )

    def _select_at_peer(self, node, term, polled) -> Tuple[List[CachedQuery], int]:
        cursor_of, index_term_hashes = polled
        return self._keep_closest(term, self._serve_poll(node, term, cursor_of), index_term_hashes)


def install_peer_side_dedup(system: SpriteSystem) -> SpriteSystem:
    """Make *system* poll through :class:`PeerSideDedup` — owners hold
    the one protocol object, so re-classing it switches every poll."""
    system.protocol.__class__ = PeerSideDedup
    return system
