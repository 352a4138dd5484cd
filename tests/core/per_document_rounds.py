"""Learning one document at a time, kept as the reference the tests
compare :meth:`~repro.core.owner.OwnerPeer.learn_all` against.

An owner's learning round polls once for all of its documents and
writes their diffs in one withdrawal and one publication pass.  Before,
each document ran its own round: its own ``poll_batch``, its own
``unpublish_batch`` and ``publish_batch``, so an owner with d documents
paid up to d request pairs and d write batches per indexing peer.
:class:`PerDocumentOwner` is that loop — ``learn_all`` as one
one-document round per document.  Every learner observes the same
queries, in the same order, and ends with the same index terms; only
the grouping of the round's messages differs, and the order in which
one peer applies two documents' withdrawals and publications.
"""

from __future__ import annotations

from repro.core.owner import OwnerPeer
from repro.core.system import SpriteSystem

from .per_term_owner import install_owners


class PerDocumentOwner(OwnerPeer):
    """An owner that runs a learning round per document."""

    def learn_all(self, target_size: int | None = None) -> None:
        for doc_id in list(self.shared):
            self.learn_document(doc_id, target_size=target_size)


def install_per_document_rounds(system: SpriteSystem) -> SpriteSystem:
    """Make every owner of *system* a :class:`PerDocumentOwner`."""
    return install_owners(system, PerDocumentOwner)
