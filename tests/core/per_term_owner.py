"""The seed's per-term owner protocol, kept as the reference the tests
compare :class:`~repro.core.owner.OwnerPeer` against.

One routed ``PUBLISH_TERM`` per (document, term) pair, one
``UNPUBLISH_TERM`` per withdrawn term, one ``POLL_QUERIES`` round-trip
per (document, index term) — the loops ``OwnerPeer`` ran under
``batched_writes=False`` while that switch lived in ``src``, and the
Section 1 cost model made executable: its ``PUBLISH_TERM`` count *is*
the number of published postings.  Only the three wire loops differ
from ``OwnerPeer``: the learning round is inherited, so its writes apply
in the same order and a state divergence is the protocol's.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.owner import OwnerPeer, Plan, SharedDocument
from repro.core.system import SpriteSystem
from repro.exceptions import NodeFailedError


class PerTermOwner(OwnerPeer):
    """An owner that talks to one indexing peer per term, per message."""

    def _publish(self, plans: Sequence[Plan], near: Sequence[int] = ()) -> None:
        for state, terms in plans:
            for term in terms:
                if term in state.index_terms:
                    continue
                posting = self._posting_for(state.document, term)
                try:
                    self.protocol.publish(self.node_id, term, posting)
                except NodeFailedError:
                    continue
                state.index_terms.append(term)
                if term not in state.poll_cursors:
                    state.poll_cursors[term] = -1

    def _unpublish(self, plans: Sequence[Plan], near: Sequence[int] = ()) -> None:
        for state, terms in plans:
            for term in list(terms):
                if term not in state.index_terms:
                    continue
                try:
                    self.protocol.unpublish(self.node_id, term, state.document.doc_id)
                except NodeFailedError:
                    pass
                state.index_terms.remove(term)
                state.poll_cursors.pop(term, None)

    def _poll(
        self, states: Sequence[SharedDocument]
    ) -> Tuple[List[List[Tuple[str, ...]]], List[int]]:
        observed: List[List[Tuple[str, ...]]] = []
        for state in states:
            hashes = {t: self.protocol.term_hash(t) for t in state.index_terms}
            collected: List[Tuple[str, ...]] = []
            for term in list(state.index_terms):
                since = state.poll_cursors.get(term, -1)
                try:
                    fresh, latest = self.protocol.poll_term(self.node_id, term, hashes, since)
                except NodeFailedError:
                    continue
                state.poll_cursors[term] = latest
                collected.extend(c.terms for c in fresh)
            observed.append(collected)
        return observed, []


def install_owners(system: SpriteSystem, owner_class: type) -> SpriteSystem:
    """Make every owner of *system* an *owner_class* by pre-filling
    ``system.owners`` before anything is shared — in corpus order, the
    order sharing would create them in, so learning visits owners in the
    same sequence."""
    assert not system.owners, "install before sharing"
    for document in system.corpus:
        node_id = system._owner_node_for(document.doc_id)
        if node_id not in system.owners:
            system.owners[node_id] = owner_class(
                node_id, system.protocol, system.config, scorer=system.scorer
            )
    return system


def install_per_term_owners(system: SpriteSystem) -> SpriteSystem:
    """Make every owner of *system* a :class:`PerTermOwner`."""
    return install_owners(system, PerTermOwner)
